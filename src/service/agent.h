// Agent (Figure 1): the daemon that collects logs at a source and ships them
// to the ingest topic, which the parser and the log manager both consume.
// Our agent doubles as the paper's replay agent ("we have developed an
// agent, which emulates the log streaming behavior"): it pushes stored
// lines as a stream, preserving order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "broker/broker.h"

namespace loglens {

struct AgentOptions {
  std::string source;          // log source name, stamped on every message
  std::string topic = "ingest";
};

class Agent {
 public:
  Agent(Broker& broker, AgentOptions options);

  // Ships one raw log line.
  void send_line(std::string_view line);

  // Replays a whole corpus in order.
  void replay(const std::vector<std::string>& lines);

  uint64_t lines_sent() const { return lines_sent_; }
  const std::string& source() const { return options_.source; }

 private:
  Broker& broker_;
  AgentOptions options_;
  uint64_t lines_sent_ = 0;
};

}  // namespace loglens
