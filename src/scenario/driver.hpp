// scenario/driver.hpp — the `iosim` CLI.
#pragma once

namespace scenario {

/// `iosim list` / `iosim run <name>...|--all [flags]`.  Returns the
/// process exit code.
int iosim_main(int argc, char** argv);

}  // namespace scenario
