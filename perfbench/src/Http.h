//===- perfbench/src/Http.h - Loopback HTTP/1.1 client ----------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The smallest client the sweep service needs: one request per fresh
/// loopback connection, read to EOF (the server answers with
/// `Connection: close` and closes first, so TIME_WAIT lands on the
/// server's side of each connection, not on client ports).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HTTP_H
#define PERFBENCH_HTTP_H

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpReply {
  int Status = 0; ///< 0 when the exchange failed at the socket level.
  std::string Body;
};

/// Sends \p Method \p Target (with \p Body when non-empty) to
/// 127.0.0.1:\p Port and reads the whole reply. Gives up after
/// \p TimeoutMillis of socket inactivity.
HttpReply httpRequest(uint16_t Port, const std::string &Method,
                      const std::string &Target, const std::string &Body = "",
                      int TimeoutMillis = 10'000);

} // namespace perfbench

#endif // PERFBENCH_HTTP_H
