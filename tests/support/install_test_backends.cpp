/**
 * @file
 * Linked into every gtest binary (see fxhenn_add_test): registers the
 * "fpga-sim" execution backend at static-initialization time, exactly
 * like the fxhenn CLI does at startup. Without this, running the suite
 * under FXHENN_BACKEND=fpga-sim (the CI backend-matrix lane) would
 * fail every PlanExecutor built with default ExecOptions with
 * ConfigError before any assertion runs — the registry only knows the built-ins until someone
 * links the DSE resolver in.
 */
#include "src/dse/sim_backend_install.hpp"

namespace {

const bool installedFpgaSim = fxhenn::dse::installFpgaSimBackend();

} // namespace
