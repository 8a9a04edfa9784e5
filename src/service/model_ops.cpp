#include "service/model_ops.h"

#include "common/clock.h"

namespace loglens {

ModelBuilder::ModelBuilder(BuildOptions options)
    : options_(std::move(options)) {}

BuildResult ModelBuilder::build(
    const std::vector<std::string>& training_lines) const {
  BuildResult result;
  result.training_logs = training_lines.size();
  const uint64_t t0 = trace_clock::now_us();

  auto pre = Preprocessor::create(options_.preprocessor);
  if (!pre.ok()) pre = Preprocessor::create({});
  Preprocessor& preprocessor = pre.value();

  std::vector<TokenizedLog> tokenized;
  tokenized.reserve(training_lines.size());
  for (const auto& line : training_lines) {
    tokenized.push_back(preprocessor.process(line));
  }

  const uint64_t t1 = trace_clock::now_us();
  PatternDiscoverer discoverer(options_.discovery, preprocessor.classifier());
  result.model.patterns = discoverer.discover(tokenized);
  const uint64_t t2 = trace_clock::now_us();
  result.discovery_seconds = static_cast<double>(t2 - t1) / 1e6;

  // Parse the training corpus with the discovered model to feed the
  // sequence learner (and as a sanity check: everything should parse).
  LogParser parser(result.model.patterns, preprocessor.classifier());
  std::vector<ParsedLog> parsed;
  parsed.reserve(tokenized.size());
  for (const auto& log : tokenized) {
    auto outcome = parser.parse(log);
    if (outcome.log.has_value()) {
      parsed.push_back(std::move(*outcome.log));
    } else {
      ++result.unparsed_training_logs;
    }
  }

  result.model.sequence = learn_sequence_model(parsed, options_.learner);

  if (options_.learn_field_ranges) {
    FieldRangeModel ranges(options_.field_ranges);
    for (const auto& log : parsed) ranges.learn(log);
    result.model.field_ranges = std::move(ranges);
  }
  if (options_.learn_keywords) {
    KeywordDetector keywords(options_.keywords);
    for (const auto& line : training_lines) keywords.observe_normal(line);
    result.model.keyword_model = keywords.to_json();
  }

  result.total_seconds =
      static_cast<double>(trace_clock::now_us() - t0) / 1e6;
  return result;
}

ModelController::ModelController(ModelStore& store, std::vector<Target> targets)
    : store_(store), targets_(std::move(targets)) {}

Status ModelController::apply(const ModelInstruction& instruction) {
  CompositeModel model;  // kDelete deploys an empty model
  if (instruction.op != ModelInstruction::Op::kDelete) {
    auto entry = store_.latest(instruction.model_name);
    if (!entry.has_value()) {
      return Status::Error("model not found: " + instruction.model_name);
    }
    auto parsed = CompositeModel::from_json(entry->blob);
    if (!parsed.ok()) return parsed.status();
    model = std::move(parsed.value());
  }
  for (auto& target : targets_) {
    auto broadcast = target.broadcast;
    CompositeModel copy = model;
    target.engine->enqueue_control(
        [broadcast, copy = std::move(copy)]() mutable {
          broadcast->update(std::move(copy));
        });
  }
  ++applied_;
  return Status::Ok();
}

ModelManager::ModelManager(ModelStore& store, ModelController& controller)
    : store_(store), controller_(controller) {}

int ModelManager::deploy(const std::string& name, const CompositeModel& model) {
  int version = store_.put(name, model.to_json());
  controller_.apply({version == 1 ? ModelInstruction::Op::kAdd
                                  : ModelInstruction::Op::kUpdate,
                     name});
  return version;
}

Status ModelManager::edit(
    const std::string& name,
    const std::function<void(CompositeModel&)>& mutate) {
  auto current = get(name);
  if (!current.ok()) return current.status();
  CompositeModel model = std::move(current.value());
  mutate(model);
  deploy(name, model);
  return Status::Ok();
}

StatusOr<BuildResult> ModelManager::rebuild(const std::string& name,
                                            LogStore& logs,
                                            const std::string& source,
                                            const ModelBuilder& builder) {
  std::vector<std::string> lines = logs.fetch(source);
  if (lines.empty()) {
    return StatusOr<BuildResult>::Error("no archived logs for source: " +
                                        source);
  }
  BuildResult result = builder.build(lines);
  deploy(name, result.model);
  return result;
}

StatusOr<CompositeModel> ModelManager::get(const std::string& name) const {
  auto entry = store_.latest(name);
  if (!entry.has_value()) {
    return StatusOr<CompositeModel>::Error("model not found: " + name);
  }
  return CompositeModel::from_json(entry->blob);
}

void ModelManager::remove(const std::string& name) {
  store_.remove(name);
  controller_.apply({ModelInstruction::Op::kDelete, name});
}

}  // namespace loglens
