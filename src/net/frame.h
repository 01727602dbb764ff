// hc-net wire framing: the byte format every socket connection speaks, plus
// the receiver-side Reorderer the reliability layer is built from
// (DESIGN.md §9).
//
// A connection is a duplex byte stream between two processes carrying
// length-prefixed frames. The one reliable frame kind (kSmpi) gets a
// per-connection sequence number assigned by the sender; the receiver acks
// each one (kAck echoes the seq), releases them in order through a
// Reorderer, and the sender retransmits anything unacked past its RTO.
// Everything else (hello/heartbeat/goodbye/ack itself) is fire-and-forget
// control traffic with seq 0.
//
// Exactly-once lives here and nowhere else: the Reorderer drops a
// retransmit or injected duplicate of a frame it already released, so the
// connection hands each reliable frame to its consumer once, in order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace net {

using Bytes = std::vector<std::uint8_t>;

enum class FrameKind : std::uint8_t {
  kNone = 0,
  kHello = 1,      // first frame on a connection; a = sender's proc id
  kAck = 2,        // seq = the acknowledged sequence number
  kHeartbeat = 3,  // liveness; silence past the death timeout = peer dead
  kGoodbye = 4,    // clean teardown; flags bit0 = "my ranks failed"
  kSmpi = 6,       // smpi envelope (world-rank subheader + payload)
};

const char* frame_kind_name(FrameKind k);

// Reliable kinds are sequenced, acked and retransmitted; control kinds are
// not (a lost heartbeat is replaced by the next one).
inline bool reliable(FrameKind k) { return k == FrameKind::kSmpi; }

// Goodbye flag: the sending process's ranks terminated with an error. World
// teardown uses it to propagate failure across the job (a remote rank death
// must not look like a clean exit on surviving processes).
inline constexpr std::uint8_t kFlagError = 0x1;

// 28-byte little-endian header:
//   u32 magic | u8 kind | u8 flags | u16 a | u32 src | u32 dst |
//   u64 seq | u32 len
// src/dst are *process* ids (rank addressing lives in kind subheaders so
// one connection multiplexes all co-located ranks).
inline constexpr std::uint32_t kMagic = 0x48434631u;  // "HCF1"
inline constexpr std::size_t kHeaderBytes = 28;
// Anything larger than this is a corrupt stream, not a real message.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

struct Frame {
  FrameKind kind = FrameKind::kNone;
  std::uint8_t flags = 0;
  std::uint16_t a = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t seq = 0;
  Bytes payload;
};

// Serializes header + payload onto `out` (append; never clears).
void append_frame(Bytes& out, const Frame& f);

// --- little-endian payload helpers (subheaders) -----------------------------

void put_u32(Bytes& out, std::uint32_t v);
void put_u64(Bytes& out, std::uint64_t v);
void put_i32(Bytes& out, std::int32_t v);

// Cursor-style reads; return false past the end (corrupt subheader).
struct ByteReader {
  const std::uint8_t* p = nullptr;
  std::size_t n = 0;
  std::size_t off = 0;

  explicit ByteReader(const Bytes& b) : p(b.data()), n(b.size()) {}
  bool u32(std::uint32_t* v);
  bool u64(std::uint64_t* v);
  bool i32(std::int32_t* v);
  std::size_t remaining() const { return n - off; }
};

// --- incremental frame decoding ---------------------------------------------

// Feed arbitrary byte chunks as they come off the socket; pull complete
// frames out. Tolerates frames split across any number of reads (partial
// writes on the wire are the *normal* case under backpressure). A bad magic
// or an absurd length poisons the reader — the connection must be dropped
// and re-established, at which point the sender's retransmit queue repairs
// the torn tail.
class FrameReader {
 public:
  void feed(const std::uint8_t* data, std::size_t len);
  // True and fills *f when a complete frame is buffered. False otherwise.
  bool next(Frame* f);
  bool corrupt() const { return corrupt_; }
  std::size_t buffered() const { return buf_.size() - off_; }

 private:
  Bytes buf_;
  std::size_t off_ = 0;
  bool corrupt_ = false;
};

// --- receiver-side sequencing -----------------------------------------------

// In-order release of reliable frames for one connection. Frames arrive out
// of order only through loss + retransmission (UDS streams don't
// reorder), but retransmits make it routine: seq 7 lost, 8..12 buffered
// here until 7's retransmit lands, then all release together. Duplicates,
// below the horizon or of a buffered frame, are dropped; each seq is
// released exactly once. push() returns false only when the gap buffer is
// full — the caller must NOT ack that frame (the sender retries later, by
// which time the gap has drained).
class Reorderer {
 public:
  explicit Reorderer(std::size_t max_buffered = 4096)
      : cap_(max_buffered) {}

  bool push(Frame&& f, std::vector<Frame>* released);
  std::uint64_t next_seq() const { return next_; }
  std::size_t buffered() const { return pending_.size(); }

 private:
  std::uint64_t next_ = 0;
  std::map<std::uint64_t, Frame> pending_;
  std::size_t cap_;
};

}  // namespace net
