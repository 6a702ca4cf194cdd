//! The host a result was measured on: cores, CPU model, cache sizes,
//! clock source and compiler.

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Size of the unified cache at `level` as sysfs reports it for CPU 0.
fn cache_size(level: &str) -> String {
    (0..8)
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let matches = read(&format!("{dir}/level")).as_deref() == Some(level)
                && read(&format!("{dir}/type")).as_deref() == Some("Unified");
            matches.then(|| read(&format!("{dir}/size"))).flatten()
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One line: `nproc=… cpu="…" l2=… l3=… clocksource=… rustc="…"`.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = read("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let clock = read("/sys/devices/system/clocksource/clocksource0/current_clocksource")
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" l2={} l3={} clocksource={clock} rustc=\"{}\"",
        cache_size("2"),
        cache_size("3"),
        env!("PERFBENCH_RUSTC")
    )
}
