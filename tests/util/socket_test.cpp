#include "util/socket.hpp"

#include <pthread.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <utility>

namespace prpart {
namespace {

/// The server end of a connection the client has already opened: it is
/// pending in the backlog, so accept_wait returns at once.
TcpStream accept_peer(TcpListener& listener) {
  WakePipe wake;
  std::optional<TcpStream> peer = listener.accept_wait(wake);
  EXPECT_TRUE(peer.has_value());
  return peer ? std::move(*peer) : TcpStream();
}

TEST(SocketTest, BindEphemeralPortReportsIt) {
  TcpListener listener = TcpListener::bind(0);
  EXPECT_TRUE(listener.valid());
  EXPECT_NE(listener.port(), 0);
}

TEST(SocketTest, ConnectToClosedPortThrows) {
  std::uint16_t dead_port;
  {
    TcpListener listener = TcpListener::bind(0);
    dead_port = listener.port();
  }
  EXPECT_THROW(TcpStream::connect("127.0.0.1", dead_port), SocketError);
}

TEST(SocketTest, LineRoundTrip) {
  TcpListener listener = TcpListener::bind(0);
  TcpStream client = TcpStream::connect("localhost", listener.port());
  std::thread echo([peer = accept_peer(listener)]() mutable {
    while (std::optional<std::string> line = peer.read_line())
      peer.write_all("echo:" + *line + "\n");
  });
  // Two requests in one write: the reader must split on '\n'.
  client.write_all("first\nsecond\n");
  EXPECT_EQ(client.read_line(), "echo:first");
  EXPECT_EQ(client.read_line(), "echo:second");
  client.write_all("third\r\n");
  EXPECT_EQ(client.read_line(), "echo:third");
  client.close();  // EOF ends the echo loop
  echo.join();
}

TEST(SocketTest, CleanEofReturnsNullopt) {
  TcpListener listener = TcpListener::bind(0);
  TcpStream client = TcpStream::connect("127.0.0.1", listener.port());
  std::thread server([peer = accept_peer(listener)]() mutable {
    peer.write_all("bye\n");
  });
  EXPECT_EQ(client.read_line(), "bye");
  EXPECT_FALSE(client.read_line().has_value());
  server.join();
}

TEST(SocketTest, UnterminatedTrailingDataIsFinalLine) {
  TcpListener listener = TcpListener::bind(0);
  TcpStream client = TcpStream::connect("127.0.0.1", listener.port());
  std::thread server([peer = accept_peer(listener)]() mutable {
    peer.write_all("no newline");
  });
  EXPECT_EQ(client.read_line(), "no newline");
  EXPECT_FALSE(client.read_line().has_value());
  server.join();
}

TEST(SocketTest, OverlongLineThrows) {
  TcpListener listener = TcpListener::bind(0);
  TcpStream client = TcpStream::connect("127.0.0.1", listener.port());
  std::thread server([peer = accept_peer(listener)]() mutable {
    peer.write_all(std::string(128, 'x') + "\n");
  });
  EXPECT_THROW(client.read_line(64), SocketError);
  server.join();
}

TEST(SocketTest, ShutdownReadUnblocksReader) {
  TcpListener listener = TcpListener::bind(0);
  TcpStream client = TcpStream::connect("127.0.0.1", listener.port());
  TcpStream peer = accept_peer(listener);
  std::thread reader([&] { EXPECT_FALSE(peer.read_line().has_value()); });
  // Give the reader a moment to block, then half-close its socket.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  peer.shutdown_read();
  reader.join();
}

// ---------------------------------------------------------------------------
// Non-blocking I/O edge cases: the reactor's building blocks, driven
// deterministically over a connected loopback pair.

/// A connected (client, server) stream pair on an ephemeral loopback port.
std::pair<TcpStream, TcpStream> stream_pair() {
  TcpListener listener = TcpListener::bind(0);
  TcpStream client = TcpStream::connect("127.0.0.1", listener.port());
  TcpStream server = accept_peer(listener);
  return {std::move(client), std::move(server)};
}

/// Shrinks a socket buffer so partial writes happen at test-sized payloads.
void shrink_buffer(int fd, int option) {
  const int size = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, option, &size, sizeof size), 0);
}

TEST(SocketTest, PartialWritesSurfaceWouldBlockAndResume) {
  auto [writer, reader] = stream_pair();
  shrink_buffer(writer.fd(), SO_SNDBUF);
  shrink_buffer(reader.fd(), SO_RCVBUF);
  writer.set_nonblocking(true);
  reader.set_nonblocking(true);

  // 64 KiB against ~8 KiB of kernel buffering: write_some must report short
  // counts and kWouldBlock, and every byte must still arrive in order once
  // the reader drains.
  std::string payload(1u << 16, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<char>('a' + i % 23);
  std::string received;
  std::size_t sent = 0;
  bool saw_would_block = false;
  bool saw_partial = false;
  char chunk[8192];
  while (received.size() < payload.size()) {
    if (sent < payload.size()) {
      const TcpStream::IoResult w =
          writer.write_some(payload.data() + sent, payload.size() - sent);
      if (w.status == TcpStream::IoStatus::kWouldBlock) {
        saw_would_block = true;
      } else {
        ASSERT_EQ(w.status, TcpStream::IoStatus::kOk);
        if (w.bytes < payload.size() - sent) saw_partial = true;
        sent += w.bytes;
      }
    }
    const TcpStream::IoResult r = reader.read_some(chunk, sizeof chunk);
    if (r.status == TcpStream::IoStatus::kOk)
      received.append(chunk, r.bytes);
    else
      ASSERT_EQ(r.status, TcpStream::IoStatus::kWouldBlock);
  }
  EXPECT_TRUE(saw_would_block);
  EXPECT_TRUE(saw_partial);
  EXPECT_EQ(received, payload);
}

TEST(SocketTest, ShortReadsReassembleFramesAcrossBoundaries) {
  auto [writer, reader] = stream_pair();
  reader.set_nonblocking(true);

  // Frames split mid-line across two writes, read back 3 bytes at a time:
  // exactly what the reactor's incremental framing has to reassemble.
  writer.write_all("first\nsec");
  writer.write_all("ond\nlast\n");
  const std::string expected = "first\nsecond\nlast\n";
  std::string received;
  char tiny[3];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (received.size() < expected.size() &&
         std::chrono::steady_clock::now() < deadline) {
    const TcpStream::IoResult r = reader.read_some(tiny, sizeof tiny);
    if (r.status == TcpStream::IoStatus::kOk) {
      received.append(tiny, r.bytes);
    } else {
      ASSERT_EQ(r.status, TcpStream::IoStatus::kWouldBlock);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(received, expected);
}

std::atomic<int> g_usr1_count{0};
void count_usr1(int) { g_usr1_count.fetch_add(1); }

TEST(SocketTest, WriteAllRetriesThroughSignalInterruptions) {
  // SA_RESTART deliberately off: a SIGUSR1 landing mid-send makes the
  // syscall fail with EINTR, which write_all/read_some must retry.
  struct sigaction sa = {};
  sa.sa_handler = count_usr1;
  sigemptyset(&sa.sa_mask);
  struct sigaction old = {};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);
  g_usr1_count.store(0);

  auto [writer, reader] = stream_pair();
  shrink_buffer(writer.fd(), SO_SNDBUF);
  shrink_buffer(reader.fd(), SO_RCVBUF);
  const std::string payload(1u << 16, 'q');
  std::thread sender([&writer, &payload] { writer.write_all(payload); });

  // Bombard the blocked sender with signals while draining slowly.
  std::string received;
  char chunk[4096];
  while (received.size() < payload.size()) {
    pthread_kill(sender.native_handle(), SIGUSR1);
    const TcpStream::IoResult r = reader.read_some(chunk, sizeof chunk);
    ASSERT_EQ(r.status, TcpStream::IoStatus::kOk);  // blocking socket
    received.append(chunk, r.bytes);
  }
  sender.join();
  sigaction(SIGUSR1, &old, nullptr);
  EXPECT_EQ(received, payload);
  EXPECT_GT(g_usr1_count.load(), 0);
}

TEST(SocketTest, PeerResetSurfacesAsClosedNotError) {
  auto [client, server] = stream_pair();
  server.set_nonblocking(true);

  // SO_LINGER with zero timeout turns close() into an immediate RST.
  struct linger lg = {};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof lg),
            0);
  client.close();

  // The reset must surface as kClosed — an event-loop state change, never
  // a thrown SocketError — on both directions, within a bounded wait.
  const char byte = 'x';
  char sink[64];
  bool write_closed = false;
  bool read_closed = false;
  for (int i = 0; i < 2000 && !(write_closed && read_closed); ++i) {
    if (!write_closed) {
      const TcpStream::IoResult w = server.write_some(&byte, 1);
      write_closed = w.status == TcpStream::IoStatus::kClosed;
    }
    if (!read_closed) {
      const TcpStream::IoResult r = server.read_some(sink, sizeof sink);
      read_closed = r.status == TcpStream::IoStatus::kClosed;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(write_closed);
  EXPECT_TRUE(read_closed);
}

TEST(SocketTest, AcceptWaitParksUntilNotified) {
  TcpListener listener = TcpListener::bind(0);
  WakePipe wake;
  std::atomic<bool> returned{false};
  std::thread acceptor([&] {
    EXPECT_FALSE(listener.accept_wait(wake).has_value());
    returned.store(true);
  });
  // No client, no wake: the acceptor stays parked (no poll timeout).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());
  wake.notify();
  acceptor.join();
  EXPECT_TRUE(returned.load());
}

TEST(SocketTest, AcceptWaitDeliversConnections) {
  TcpListener listener = TcpListener::bind(0);
  WakePipe wake;
  std::thread acceptor([&] {
    std::optional<TcpStream> peer = listener.accept_wait(wake);
    ASSERT_TRUE(peer.has_value());
    peer->write_all("hi\n");
  });
  TcpStream client = TcpStream::connect("127.0.0.1", listener.port());
  EXPECT_EQ(client.read_line(), "hi");
  acceptor.join();
}

TEST(SocketTest, NonblockingAcceptReturnsNulloptWhenIdle) {
  TcpListener listener = TcpListener::bind(0);
  listener.set_nonblocking(true);
  EXPECT_FALSE(listener.accept_nonblocking().has_value());
  TcpStream client = TcpStream::connect("127.0.0.1", listener.port());
  // The connection lands asynchronously; poll briefly.
  std::optional<TcpStream> peer;
  for (int i = 0; i < 2000 && !peer; ++i) {
    peer = listener.accept_nonblocking();
    if (!peer) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(peer.has_value());
}

}  // namespace
}  // namespace prpart
