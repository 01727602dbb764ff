#include "net/frame.h"

#include <cstring>

namespace net {

const char* frame_kind_name(FrameKind k) {
  switch (k) {
    case FrameKind::kNone: return "none";
    case FrameKind::kHello: return "hello";
    case FrameKind::kAck: return "ack";
    case FrameKind::kHeartbeat: return "heartbeat";
    case FrameKind::kGoodbye: return "goodbye";
    case FrameKind::kSmpi: return "smpi";
  }
  return "?";
}

void put_u32(Bytes& out, std::uint32_t v) {
  out.push_back(std::uint8_t(v));
  out.push_back(std::uint8_t(v >> 8));
  out.push_back(std::uint8_t(v >> 16));
  out.push_back(std::uint8_t(v >> 24));
}

void put_u64(Bytes& out, std::uint64_t v) {
  put_u32(out, std::uint32_t(v));
  put_u32(out, std::uint32_t(v >> 32));
}

void put_i32(Bytes& out, std::int32_t v) { put_u32(out, std::uint32_t(v)); }

namespace {
std::uint32_t rd_u32(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
         std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}
std::uint64_t rd_u64(const std::uint8_t* p) {
  return std::uint64_t(rd_u32(p)) | std::uint64_t(rd_u32(p + 4)) << 32;
}
}  // namespace

bool ByteReader::u32(std::uint32_t* v) {
  if (off + 4 > n) return false;
  *v = rd_u32(p + off);
  off += 4;
  return true;
}

bool ByteReader::u64(std::uint64_t* v) {
  if (off + 8 > n) return false;
  *v = rd_u64(p + off);
  off += 8;
  return true;
}

bool ByteReader::i32(std::int32_t* v) {
  std::uint32_t u;
  if (!u32(&u)) return false;
  *v = std::int32_t(u);
  return true;
}

void append_frame(Bytes& out, const Frame& f) {
  put_u32(out, kMagic);
  out.push_back(std::uint8_t(f.kind));
  out.push_back(f.flags);
  out.push_back(std::uint8_t(f.a));
  out.push_back(std::uint8_t(f.a >> 8));
  put_u32(out, f.src);
  put_u32(out, f.dst);
  put_u64(out, f.seq);
  put_u32(out, std::uint32_t(f.payload.size()));
  out.insert(out.end(), f.payload.begin(), f.payload.end());
}

void FrameReader::feed(const std::uint8_t* data, std::size_t len) {
  if (corrupt_ || len == 0) return;
  // Compact once the consumed prefix dominates, so a long-lived connection
  // doesn't grow its buffer without bound.
  if (off_ > 4096 && off_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + std::ptrdiff_t(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

bool FrameReader::next(Frame* f) {
  if (corrupt_) return false;
  const std::size_t avail = buf_.size() - off_;
  if (avail < kHeaderBytes) return false;
  const std::uint8_t* h = buf_.data() + off_;
  if (rd_u32(h) != kMagic) {
    corrupt_ = true;
    return false;
  }
  const std::uint32_t len = rd_u32(h + 24);
  if (len > kMaxFrameBytes) {
    corrupt_ = true;
    return false;
  }
  if (avail < kHeaderBytes + len) return false;
  f->kind = FrameKind(h[4]);
  f->flags = h[5];
  f->a = std::uint16_t(h[6]) | std::uint16_t(std::uint16_t(h[7]) << 8);
  f->src = rd_u32(h + 8);
  f->dst = rd_u32(h + 12);
  f->seq = rd_u64(h + 16);
  f->payload.assign(h + kHeaderBytes, h + kHeaderBytes + len);
  off_ += kHeaderBytes + len;
  return true;
}

bool Reorderer::push(Frame&& f, std::vector<Frame>* released) {
  // Below the horizon: a retransmit or duplicate of something already
  // released. Dropped, but still acked — it usually means our ack was lost.
  if (f.seq < next_) return true;
  if (f.seq == next_) {
    released->push_back(std::move(f));
    ++next_;
    for (auto it = pending_.begin();
         it != pending_.end() && it->first == next_;) {
      released->push_back(std::move(it->second));
      it = pending_.erase(it);
      ++next_;
    }
    return true;
  }
  if (pending_.count(f.seq) != 0) return true;  // dup of a buffered frame
  if (pending_.size() >= cap_) return false;    // gap buffer full: don't ack
  pending_.emplace(f.seq, std::move(f));
  return true;
}

}  // namespace net
