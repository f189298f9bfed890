// Wire hardening of the process backend: every length a peer announces
// (frame payloads, status messages) is capped before anything is sized
// by it, and a read honours one deadline per call.
// Each case forges bytes over a socketpair and drives the real parser.
#include "proc/framing.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "comm/transport.h"

namespace scd::proc {
namespace {

using Clock = std::chrono::steady_clock;

/// A connected socketpair, closed on scope exit: `writer` forges, `reader`
/// is what the parser under test reads from.
struct Pipe {
  int writer = -1;
  int reader = -1;
  Pipe() {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    writer = sv[0];
    reader = sv[1];
  }
  ~Pipe() {
    if (writer >= 0) ::close(writer);
    if (reader >= 0) ::close(reader);
  }
  template <typename T>
  void forge(const T& value) {
    ASSERT_TRUE(write_full(writer, &value, sizeof(value)));
  }
};

/// Runs `parse` and expects a TransportError naming the length cap —
/// raised before any allocation, so quickly and without bad_alloc.
template <typename Parse>
void expect_capped(Parse&& parse) {
  const Clock::time_point start = Clock::now();
  try {
    parse();
    ADD_FAILURE() << "forged length was accepted";
  } catch (const comm::TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::duration<double>(Clock::now() - start).count(), 1.0);
}

TEST(ProcFramingTest, ForgedFramePayloadLengthIsRejectedBeforeAllocation) {
  for (const std::uint64_t forged :
       {kMaxFrameBytes + 1, std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
    Pipe pipe;
    pipe.forge(FrameHeader{kFrameMagic, 7, forged});
    FrameHeader header;
    expect_capped([&] { read_frame_header(pipe.reader, header, 5.0); });
  }
}

TEST(ProcFramingTest, FrameHeaderWithinTheCapIsAccepted) {
  Pipe pipe;
  pipe.forge(FrameHeader{kFrameMagic, 3, kMaxFrameBytes});
  FrameHeader header;
  EXPECT_EQ(read_frame_header(pipe.reader, header, 5.0), IoStatus::kOk);
  EXPECT_EQ(header.tag, 3);
  EXPECT_EQ(header.payload_bytes, kMaxFrameBytes);
}

TEST(ProcFramingTest, CorruptFrameMagicIsATransportError) {
  Pipe pipe;
  pipe.forge(FrameHeader{0xdeadbeef, 1, 8});
  FrameHeader header;
  EXPECT_THROW(read_frame_header(pipe.reader, header, 5.0),
               comm::TransportError);
}

TEST(ProcFramingTest, ForgedStatusMessageLengthIsRejectedBeforeAllocation) {
  for (const std::uint32_t forged :
       {kMaxStatusMessageBytes + 1, ~std::uint32_t{0}}) {
    Pipe pipe;
    StatusBlob blob;
    blob.msg_len = forged;
    pipe.forge(blob);
    StatusBlob got;
    std::string msg;
    expect_capped([&] { read_status(pipe.reader, 5.0, got, msg); });
  }
}

TEST(ProcFramingTest, StatusReportRoundTripsAndTruncatesLongMessages) {
  Pipe pipe;
  StatusBlob blob;
  blob.err = 1;
  blob.final_now = 2.5;
  // Larger than the socket buffer: write from a thread while reading.
  const std::string long_msg(kMaxStatusMessageBytes + 1000, 'x');
  std::thread writer(
      [&] { EXPECT_TRUE(write_status(pipe.writer, blob, long_msg)); });
  StatusBlob got;
  std::string msg;
  EXPECT_EQ(read_status(pipe.reader, 5.0, got, msg), IoStatus::kOk);
  writer.join();
  EXPECT_EQ(got.magic, kStatusMagic);
  EXPECT_EQ(got.err, 1u);
  EXPECT_EQ(got.final_now, 2.5);
  EXPECT_EQ(msg, long_msg.substr(0, kMaxStatusMessageBytes));
}

TEST(ProcFramingTest, TricklingPeerCannotStretchTheReadDeadline) {
  // The peer sends one byte every 40 ms: 40 bytes would take 1.6 s, and
  // each byte lands well inside a 0.3 s per-chunk timeout. One deadline
  // per call must cut the read off after ~0.3 s, mid-frame.
  constexpr std::size_t kBytes = 40;
  Pipe pipe;
  std::thread trickler([fd = pipe.writer] {
    for (std::size_t i = 0; i < kBytes; ++i) {
      const char byte = 'b';
      if (!write_full(fd, &byte, 1)) return;  // reader gave up and closed
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  });
  std::vector<char> buf(kBytes);
  const Clock::time_point start = Clock::now();
  EXPECT_THROW(read_full(pipe.reader, buf.data(), buf.size(), 0.3),
               comm::TransportError);
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  ::close(pipe.reader);
  pipe.reader = -1;
  trickler.join();
  EXPECT_GE(elapsed, 0.25);
  EXPECT_LT(elapsed, 1.0);
}

}  // namespace
}  // namespace scd::proc
