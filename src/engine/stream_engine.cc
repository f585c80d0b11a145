#include "engine/stream_engine.h"

#include <utility>

#include "engine/scheduler.h"
#include "engine/session.h"

namespace tristream {
namespace engine {

StreamEngine::StreamEngine(SessionOptions options)
    : options_(std::move(options)) {}

Status StreamEngine::Run(StreamingEstimator& estimator,
                         stream::EdgeStream& source) {
  // One session, driven inline to completion: with a single session the
  // scheduler degenerates to Step-until-done on this thread, which issues
  // exactly the batch sequence the old monolithic loop did (blocking in
  // the source when it has nothing buffered -- Session's default,
  // non-cooperative mode).
  Session session(estimator, source, options_);
  Scheduler scheduler;
  scheduler.Add(&session);
  scheduler.Run();
  metrics_ = session.metrics();
  return session.status();
}

}  // namespace engine
}  // namespace tristream
