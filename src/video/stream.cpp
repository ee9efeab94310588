#include "video/stream.hpp"

#include "common/error.hpp"

namespace hwpat::video {

VideoSource::VideoSource(Module* parent, std::string name, Config cfg,
                         core::StreamProducer out, Bit& sof,
                         std::vector<Frame> frames)
    : Module(parent, std::move(name)),
      cfg_(cfg),
      out_(out),
      sof_(sof),
      frames_(std::move(frames)) {
  HWPAT_ASSERT(cfg_.pixel_interval >= 1);
  HWPAT_ASSERT(cfg_.frame_blanking >= 0);
  for (const Frame& f : frames_) HWPAT_ASSERT(!f.empty());
}

bool VideoSource::pixel_due() const {
  if (done() || frame_idx_ >= frames_.size()) return false;
  return wait_ == 0;
}

void VideoSource::eval_comb() {
  const bool due = pixel_due();
  const bool go =
      due && (!cfg_.respect_backpressure || out_.can_push.read());
  out_.push.write(go);
  if (go) {
    const Frame& f = frames_[frame_idx_];
    out_.push_data.write(f.pixels()[pix_idx_]);
    sof_.write(pix_idx_ == 0);
  } else {
    out_.push_data.write(0);
    sof_.write(false);
  }
}

void VideoSource::declare_state() {
  // on_clock() writes no signals; wait_/pix_idx_/frame_idx_ drive
  // eval_comb() (sent_ is statistics only) and are reported below.
  declare_seq_state();
}

void VideoSource::on_clock() {
  if (wait_ > 0) {
    // eval_comb() only tests wait_ == 0 (pixel_due), so mid-countdown
    // decrements are not eval-visible — touch on the final one only.
    if (--wait_ == 0) seq_touch();
    return;
  }
  if (done() || frame_idx_ >= frames_.size()) return;  // past the window
  if (cfg_.respect_backpressure && !out_.can_push.read()) return;
  // The pixel was pushed this edge.
  ++sent_;
  seq_touch();
  const Frame& f = frames_[frame_idx_];
  if (++pix_idx_ >= f.pixel_count()) {
    pix_idx_ = 0;
    ++frame_idx_;
    if (cfg_.loop && frame_idx_ >= frames_.size()) frame_idx_ = 0;
    wait_ = cfg_.pixel_interval - 1 + cfg_.frame_blanking;
  } else {
    wait_ = cfg_.pixel_interval - 1;
  }
}

void VideoSource::on_reset() {
  frame_idx_ = 0;
  pix_idx_ = 0;
  wait_ = 0;
  sent_ = 0;
}

void VideoSource::report(rtl::PrimitiveTally& t) const {
  // The decoder-side sync logic: line/pixel counters and sync decode.
  if (frames_.empty()) return;
  const int xb = bits_for(static_cast<Word>(frames_[0].width()));
  const int yb = bits_for(static_cast<Word>(frames_[0].height()));
  t.regs(xb + yb + 4);
  t.adder(xb + yb);
  t.comparator(xb + yb);
  t.lut(4);
  t.depth(2);
}

VgaSink::VgaSink(Module* parent, std::string name, Config cfg,
                 core::StreamConsumer in)
    : Module(parent, std::move(name)),
      cfg_(cfg),
      in_(in),
      current_(cfg.width, cfg.height, cfg.channels) {
  HWPAT_ASSERT(cfg_.pixel_interval >= 1);
}

void VgaSink::eval_comb() {
  in_.pop.write(wait_ == 0 && in_.can_pop.read());
}

void VgaSink::declare_state() {
  // eval_comb() reads wait_ only; the frame reassembly state (pix_idx_,
  // current_, frames_, streaming_) never feeds back into the design.
  declare_seq_state();
}

void VgaSink::on_clock() {
  if (wait_ > 0) {
    // eval_comb() only tests wait_ == 0 — touch on the final decrement.
    if (--wait_ == 0) seq_touch();
    return;
  }
  if (!in_.can_pop.read()) {
    if (cfg_.strict_rate && streaming_)
      throw ProtocolError("VGA sink '" + full_name() +
                          "': pixel underrun (pipeline too slow for the "
                          "display rate)");
    return;
  }
  streaming_ = true;
  current_.pixels()[pix_idx_] = in_.front.read();
  ++received_;
  if (++pix_idx_ >= current_.pixel_count()) {
    frames_.push_back(current_);
    pix_idx_ = 0;
  }
  wait_ = cfg_.pixel_interval - 1;
  if (wait_ != 0) seq_touch();  // wait_ was 0 on entry to this path
}

void VgaSink::on_reset() {
  frames_.clear();
  pix_idx_ = 0;
  wait_ = 0;
  streaming_ = false;
  received_ = 0;
}

void VgaSink::report(rtl::PrimitiveTally& t) const {
  // VGA timing generator: horizontal/vertical counters + sync compare.
  const int xb = bits_for(static_cast<Word>(cfg_.width) + 160);
  const int yb = bits_for(static_cast<Word>(cfg_.height) + 45);
  t.regs(xb + yb + 3);
  t.adder(xb + yb);
  t.comparator(2 * (xb + yb));  // sync start/end per axis
  t.lut(4);
  t.depth(2);
}


namespace {

void save_frame(rtl::StateWriter& w, const Frame& f) {
  w.i32(f.width());
  w.i32(f.height());
  w.i32(f.channels());
  w.words(f.pixels());
}

/// Bytes of save_frame() for an empty frame: three i32 fields (stored
/// as 8 bytes each) and the pixel count.
constexpr std::size_t kFrameHeaderBytes = 4 * 8;

/// Mirror of save_frame() into `f`, reusing its pixel buffer when the
/// shape is unchanged — the common case, since reset() and a restore
/// reload frames of the sink's configured size.  A new shape is checked
/// against the bytes left before anything is allocated, so a corrupted
/// header cannot request a huge frame.
void load_frame(rtl::StateReader& r, Frame& f) {
  const int width = r.i32();
  const int height = r.i32();
  const int channels = r.i32();
  if (width != f.width() || height != f.height() ||
      channels != f.channels()) {
    if (width < 1 || height < 1 || (channels != 1 && channels != 3) ||
        static_cast<std::uint64_t>(width) *
                static_cast<std::uint64_t>(height) >
            r.remaining() / sizeof(Word))
      throw SnapshotError("snapshot: frame shape " + std::to_string(width) +
                          "x" + std::to_string(height) + "x" +
                          std::to_string(channels) +
                          " is invalid or larger than the rest of the blob");
    f = Frame(width, height, channels);
  }
  r.fixed_words(f.pixels());
}

}  // namespace

void VideoSource::save_state(rtl::StateWriter& w) const {
  w.u64(frame_idx_);
  w.u64(pix_idx_);
  w.i32(wait_);
  w.u64(sent_);
}

void VideoSource::load_state(rtl::StateReader& r) {
  frame_idx_ = static_cast<std::size_t>(r.u64());
  pix_idx_ = static_cast<std::size_t>(r.u64());
  wait_ = r.i32();
  sent_ = static_cast<std::size_t>(r.u64());
}

void VgaSink::save_state(rtl::StateWriter& w) const {
  w.u32(static_cast<std::uint32_t>(frames_.size()));
  for (const Frame& f : frames_) save_frame(w, f);
  save_frame(w, current_);
  w.u64(pix_idx_);
  w.i32(wait_);
  w.boolean(streaming_);
  w.u64(received_);
}

void VgaSink::load_state(rtl::StateReader& r) {
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / kFrameHeaderBytes)
    throw SnapshotError("snapshot: truncated blob (" + std::to_string(n) +
                        " collected frame(s) cannot fit in the " +
                        std::to_string(r.remaining()) + " byte(s) left)");
  frames_.resize(n);
  for (Frame& f : frames_) load_frame(r, f);
  load_frame(r, current_);
  pix_idx_ = static_cast<std::size_t>(r.u64());
  wait_ = r.i32();
  streaming_ = r.boolean();
  received_ = static_cast<std::size_t>(r.u64());
}

}  // namespace hwpat::video
