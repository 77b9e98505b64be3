// spider_cli — run an arbitrary Spider experiment from the command line and
// emit machine-readable results (JSON summary, optional CSV CDFs). The tool
// a downstream user scripts parameter sweeps with.
//
//   $ ./spider_cli --config=multi --channel=1 --speed=10 --duration=300
//                  --seed=7 --sites=30 --csv=cdfs.csv
//
// Flags (all optional; a value outside its range, or not a number, exits 2):
//   --config=multi|single|3ch|3ch-single|dynamic|stock   driver preset
//   --channel=N        camp channel for single-channel presets, 1..11
//                      (default 1)
//   --speed=M          vehicle speed m/s, 0..1000 (default 10; 0 = static)
//   --duration=S       simulated seconds, 1e-6..1e6 (default 300)
//   --seed=N           RNG seed, 0..2^64-1 (default 1)
//   --sites=N          deployment sites in the 700x500 m area, 0..1000
//                      (default 30)
//   --dud=F            fraction of never-leasing APs, 0..1 (default 0.2)
//   --csv=PATH         write connection/disruption/bandwidth CDFs as CSV
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/configs.h"
#include "core/experiment.h"
#include "phy/channel.h"
#include "telemetry/json.h"
#include "trace/export.h"

using namespace spider;

namespace {

struct Options {
  std::string config = "multi";
  net::ChannelId channel = 1;
  double speed = 10.0;
  double duration = 300.0;
  std::uint64_t seed = 1;
  int sites = 30;
  double dud = 0.2;
  std::string csv_path;
};

bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    out = arg + n + 1;
    return true;
  }
  return false;
}

// The numeric flags below parse all of their value with strto* and require
// it within the range in the usage comment; anything else exits 2, like an
// unknown flag. The bounds keep every value inside what the simulator can
// represent (a duration past ~9e12 s would overflow sim::Time).
[[noreturn]] void bad_value(const char* flag, const std::string& v,
                            const std::string& want) {
  std::fprintf(stderr, "bad value for %s: '%s' (want %s)\n", flag, v.c_str(),
               want.c_str());
  std::exit(2);
}

double number(const char* flag, const std::string& v, double lo, double hi) {
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0' || errno == ERANGE || !std::isfinite(x) ||
      x < lo || x > hi) {
    char want[64];
    std::snprintf(want, sizeof want, "a number in %g..%g", lo, hi);
    bad_value(flag, v, want);
  }
  return x;
}

int integer(const char* flag, const std::string& v, int lo, int hi) {
  char* end = nullptr;
  errno = 0;
  const long x = std::strtol(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno == ERANGE || x < lo || x > hi) {
    bad_value(flag, v,
              "an integer in " + std::to_string(lo) + ".." + std::to_string(hi));
  }
  return static_cast<int>(x);
}

std::uint64_t seed_value(const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  // strtoull accepts (and wraps) a leading '-'; a seed is digits only.
  if (v.empty() || std::isdigit(static_cast<unsigned char>(v[0])) == 0 ||
      *end != '\0' || errno == ERANGE) {
    bad_value("--seed", v, "an integer in 0..2^64-1");
  }
  return x;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (parse_flag(argv[i], "--config", v)) o.config = v;
    else if (parse_flag(argv[i], "--channel", v)) o.channel = integer("--channel", v, phy::kMinChannel, phy::kMaxChannel);
    else if (parse_flag(argv[i], "--speed", v)) o.speed = number("--speed", v, 0.0, 1000.0);
    else if (parse_flag(argv[i], "--duration", v)) o.duration = number("--duration", v, 1e-6, 1e6);
    else if (parse_flag(argv[i], "--seed", v)) o.seed = seed_value(v);
    else if (parse_flag(argv[i], "--sites", v)) o.sites = integer("--sites", v, 0, 1000);
    else if (parse_flag(argv[i], "--dud", v)) o.dud = number("--dud", v, 0.0, 1.0);
    else if (parse_flag(argv[i], "--csv", v)) o.csv_path = v;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  core::ExperimentConfig cfg;
  cfg.seed = o.seed;
  cfg.duration = sim::Time::seconds(o.duration);
  sim::Rng rng(o.seed);
  auto deploy_rng = rng.fork("deploy");
  mobility::DeploymentConfig dcfg;
  dcfg.dud_fraction = o.dud;
  cfg.aps = mobility::area_deployment(700, 500, o.sites, deploy_rng, dcfg);
  cfg.vehicle = o.speed > 0.0
                    ? mobility::Vehicle(mobility::Route::rectangle(600, 400),
                                        o.speed)
                    : mobility::Vehicle(mobility::Route::straight(1.0), 0.0);

  if (o.config == "multi") {
    cfg.spider = core::single_channel_multi_ap(o.channel);
  } else if (o.config == "single") {
    cfg.spider = core::single_channel_single_ap(o.channel);
  } else if (o.config == "3ch") {
    cfg.spider = core::multi_channel_multi_ap();
  } else if (o.config == "3ch-single") {
    cfg.spider = core::multi_channel_single_ap();
  } else if (o.config == "dynamic") {
    cfg.spider = core::dynamic_channel_multi_ap(o.channel);
  } else if (o.config == "stock") {
    cfg.driver = core::DriverKind::kStock;
  } else {
    std::fprintf(stderr, "unknown --config=%s\n", o.config.c_str());
    return 2;
  }

  core::Experiment exp(std::move(cfg));
  const auto r = exp.run();

  // Integers print as integers, doubles as %.17g (null when not finite).
  std::string json = "{";
  const auto key = [&json](const char* name) {
    if (json.size() > 1) json.push_back(',');
    telemetry::append_json_quoted(json, name);
    json.push_back(':');
  };
  const auto num = [&](const char* name, double v) {
    key(name);
    telemetry::append_json_double(json, v);
  };
  const auto count = [&](const char* name, std::uint64_t v) {
    key(name);
    telemetry::append_json_u64(json, v);
  };
  key("config");
  telemetry::append_json_quoted(json, o.config);
  count("seed", o.seed);
  count("aps", exp.ap_count());
  num("duration_s", o.duration);
  num("throughput_kBps", r.avg_throughput_kBps());
  num("connectivity_pct", r.connectivity_percent());
  count("joins", r.joins.joins);
  count("join_attempts", r.joins.join_attempts);
  num("median_join_s", r.joins.join_delay_sec.empty()
                           ? 0.0
                           : r.joins.join_delay_sec.median());
  num("dhcp_join_failure_rate", r.joins.dhcp_join_failure_rate());
  count("channel_switches", r.channel_switches);
  num("client_joules", r.client_joules);
  num("joules_per_MB", r.joules_per_megabyte());
  json += "}\n";
  std::fputs(json.c_str(), stdout);

  if (!o.csv_path.empty()) {
    std::ofstream csv(o.csv_path);
    trace::write_cdfs_csv(
        csv,
        {{"connection_s", &r.traffic.connection_durations_sec},
         {"disruption_s", &r.traffic.disruption_durations_sec}},
        25, 0.0, 120.0);
    std::fprintf(stderr, "wrote %s\n", o.csv_path.c_str());
  }
  return 0;
}
