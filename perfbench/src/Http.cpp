//===- perfbench/src/Http.cpp - Loopback HTTP/1.1 client ------------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "Http.h"

#include <cstdlib>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace perfbench;

namespace {

/// Closes the descriptor on every path.
class Socket {
public:
  Socket() : Fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {}
  ~Socket() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;
  int fd() const { return Fd; }

private:
  int Fd;
};

bool waitFor(int Fd, short Events, int TimeoutMillis) {
  pollfd P = {Fd, Events, 0};
  return ::poll(&P, 1, TimeoutMillis) == 1;
}

} // namespace

HttpReply perfbench::httpRequest(uint16_t Port, const std::string &Method,
                                 const std::string &Target,
                                 const std::string &Body, int TimeoutMillis) {
  HttpReply Reply;
  Socket S;
  if (S.fd() < 0)
    return Reply;
  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(S.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0)
    return Reply;

  std::string Req = Method + " " + Target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!Body.empty())
    Req += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(Body.size()) + "\r\n";
  Req += "\r\n" + Body;
  for (size_t Off = 0; Off < Req.size();) {
    if (!waitFor(S.fd(), POLLOUT, TimeoutMillis))
      return Reply;
    ssize_t N = ::send(S.fd(), Req.data() + Off, Req.size() - Off,
                       MSG_NOSIGNAL);
    if (N <= 0)
      return Reply;
    Off += static_cast<size_t>(N);
  }

  std::string Raw;
  char Buf[8192];
  for (;;) {
    if (!waitFor(S.fd(), POLLIN, TimeoutMillis))
      return Reply;
    ssize_t N = ::recv(S.fd(), Buf, sizeof(Buf), 0);
    if (N < 0)
      return Reply;
    if (N == 0)
      break;
    Raw.append(Buf, static_cast<size_t>(N));
  }
  // "HTTP/1.1 200 OK\r\n...\r\n\r\n<body>"
  size_t Sp = Raw.find(' ');
  size_t HeaderEnd = Raw.find("\r\n\r\n");
  if (Raw.compare(0, 5, "HTTP/") != 0 || Sp == std::string::npos ||
      HeaderEnd == std::string::npos)
    return Reply;
  Reply.Status = std::atoi(Raw.c_str() + Sp + 1);
  Reply.Body = Raw.substr(HeaderEnd + 4);
  return Reply;
}
