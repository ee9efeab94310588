#include "designs/variants.hpp"

#include "common/error.hpp"
#include "designs/saa2vga_lane.hpp"
#include "meta/spec.hpp"
#include "meta/sweep_grid.hpp"

namespace hwpat::designs {

namespace {

int parse_int(const std::string& s, const char* axis) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw SpecError(std::string("sweep grid: axis '") + axis +
                    "' value '" + s + "' is not an integer");
  }
}

std::string device_token(DeviceKind d) {
  switch (d) {
    case DeviceKind::FifoCore: return "fifo";
    case DeviceKind::Sram: return "sram";
    default:
      throw SpecError("sweep grid: axis 'device' cannot map device kind " +
                      std::to_string(static_cast<int>(d)) +
                      " (stream buffers take FifoCore or Sram)");
  }
}

DeviceKind parse_device(const std::string& s) {
  if (s == "fifo") return DeviceKind::FifoCore;
  if (s == "sram") return DeviceKind::Sram;
  throw SpecError("sweep grid: axis 'device' value '" + s +
                  "' is not a device token (fifo|sram)");
}

/// Runs the metamodel validator over the variant's read-buffer spec
/// (the write buffer has the same device and depth) before anything is
/// elaborated.
void validate_buffer(const Saa2VgaConfig& cfg) {
  meta::validate(saa2vga_buffer_spec(
      {.device = cfg.device, .depth = cfg.buffer_depth}, true));
  // A depth smaller than a frame is legal (the stream just
  // backpressures), but the frame itself must have area.
  if (cfg.width <= 0 || cfg.height <= 0)
    throw SpecError("sweep grid: frame " + std::to_string(cfg.width) + "x" +
                    std::to_string(cfg.height) + " is not positive");
}

std::vector<std::string> int_axis_values(const std::vector<int>& v) {
  std::vector<std::string> out;
  out.reserve(v.size());
  for (int x : v) out.push_back(std::to_string(x));
  return out;
}

}  // namespace

bool video_design_finished(const rtl::Module& top) {
  return static_cast<const VideoDesign&>(top).finished();
}

std::vector<rtl::SweepJob> saa2vga_sweep(const Saa2VgaSweepGrid& grid) {
  std::vector<std::string> dev_tokens;
  dev_tokens.reserve(grid.devices.size());
  for (DeviceKind d : grid.devices) dev_tokens.push_back(device_token(d));
  const std::vector<meta::SweepAxis> axes = {
      {"width", int_axis_values(grid.widths)},
      {"depth", int_axis_values(grid.depths)},
      {"device", dev_tokens},
  };
  std::vector<rtl::SweepJob> jobs;
  for (const meta::SweepPoint& p : meta::enumerate_grid(axes)) {
    Saa2VgaConfig cfg;
    cfg.width = parse_int(p.at(axes, "width"), "width");
    cfg.height = cfg.width * 3 / 4;
    cfg.buffer_depth = parse_int(p.at(axes, "depth"), "depth");
    cfg.device = parse_device(p.at(axes, "device"));
    cfg.frames = grid.frames;
    cfg.pattern_seed = grid.pattern_seed;
    validate_buffer(cfg);

    rtl::SweepJob job;
    job.name = "saa2vga_w" + std::to_string(cfg.width) + "_h" +
               std::to_string(cfg.height) + "_d" +
               std::to_string(cfg.buffer_depth) + "_" +
               p.at(axes, "device");
    job.build = [cfg] { return make_saa2vga_pattern(cfg); };
    job.done = video_design_finished;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<rtl::SweepJob> saa2vga_triclk_sweep(const TriClkSweepGrid& grid) {
  const std::vector<meta::SweepAxis> axes = {
      {"ratio", grid.ratios},
      {"lanes", int_axis_values(grid.lanes)},
  };
  std::vector<rtl::SweepJob> jobs;
  for (const meta::SweepPoint& p : meta::enumerate_grid(axes)) {
    const std::string& ratio = p.at(axes, "ratio");
    const std::size_t x1 = ratio.find('x');
    const std::size_t x2 =
        x1 == std::string::npos ? std::string::npos : ratio.find('x', x1 + 1);
    if (x2 == std::string::npos)
      throw SpecError("sweep grid: axis 'ratio' value '" + ratio +
                      "' is not <cam>x<mem>x<pix>");
    Saa2VgaTriClkConfig cfg;
    cfg.cam_period = parse_int(ratio.substr(0, x1), "ratio");
    cfg.mem_period = parse_int(ratio.substr(x1 + 1, x2 - x1 - 1), "ratio");
    cfg.pix_period = parse_int(ratio.substr(x2 + 1), "ratio");
    if (cfg.cam_period <= 0 || cfg.mem_period <= 0 || cfg.pix_period <= 0)
      throw SpecError("sweep grid: axis 'ratio' value '" + ratio +
                      "' has a non-positive period");
    cfg.lanes = parse_int(p.at(axes, "lanes"), "lanes");
    if (cfg.lanes <= 0)
      throw SpecError("sweep grid: axis 'lanes' value '" +
                      p.at(axes, "lanes") + "' must be positive");
    cfg.width = grid.width;
    cfg.height = grid.height;
    cfg.frames = grid.frames;
    cfg.pattern_seed = grid.pattern_seed;

    rtl::SweepJob job;
    job.name = "triclk_" + ratio + "_l" + p.at(axes, "lanes");
    job.build = [cfg] { return make_saa2vga_triclk(cfg); };
    job.done = video_design_finished;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace hwpat::designs
