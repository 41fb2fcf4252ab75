/**
 * @file
 * Strict boolean environment-flag parsing.
 *
 * HC_CHECK (the SimCheck layer, mem::Machine) is the one switch the
 * simulator reads from the environment; every other plane is a config
 * value. A lenient parse ("anything but '0' is on") would let a typo
 * like HC_CHECK=ture silently enable — or HC_CHECK=off silently
 * ENABLE — the checker. envFlag() parses strictly: a recognized
 * on/off literal yields On/Off, everything else (including empty) is
 * Unset and warns once per variable, so the caller's default applies.
 */

#ifndef HC_SUPPORT_ENV_HH
#define HC_SUPPORT_ENV_HH

namespace hc {

/** Result of parsing a boolean environment variable. */
enum class EnvFlag {
    Unset, //!< absent, empty, or unrecognized (caller default wins)
    Off,   //!< "0", "false", "off", "no" (case-insensitive)
    On,    //!< "1", "true", "on", "yes" (case-insensitive)
};

/**
 * Parse the environment variable @p name strictly.
 *
 * Unrecognized non-empty values warn once per variable name (the
 * process keeps running with the caller's default — a garbled flag
 * must not silently flip a feature).
 */
EnvFlag envFlag(const char *name);

/** @return envFlag(@p name) as a bool, @p fallback when Unset. */
bool envFlagOr(const char *name, bool fallback);

} // namespace hc

#endif // HC_SUPPORT_ENV_HH
