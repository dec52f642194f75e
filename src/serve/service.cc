#include "serve/service.hh"

#include "obs/tracer.hh"

namespace dronedse::serve {

ErrorReply
frameTooLarge()
{
    return {ErrorCode::TooLarge,
            "frame exceeds " + std::to_string(kMaxFrameBytes) +
                " bytes"};
}

Service::Service(const ServiceOptions &options)
    : engine_(options.engine), planner_(engine_),
      admission_(options.admission),
      framesCounter_(obs::metrics().counter("serve.frames")),
      okCounter_(obs::metrics().counter("serve.replies.ok")),
      errorCounter_(obs::metrics().counter("serve.replies.error"))
{
}

bool
Service::admit(const std::string &frame, std::uint64_t conn, double t,
               bool enqueue, Request &request, std::string &reply)
{
    framesCounter_.add(1);
    const auto reject = [&](std::uint64_t id, const ErrorReply &err) {
        errorCounter_.add(1);
        reply = serializeErrorReply(id, err);
        return false;
    };

    if (frame.size() > kMaxFrameBytes)
        return reject(0, frameTooLarge());
    ErrorReply err;
    if (!parseRequest(frame, request, err))
        return reject(request.id, err);

    const std::uint64_t id = request.id;
    const AdmitDecision decision =
        enqueue ? admission_.submit(
                      QueuedItem{conn, std::move(request), t}, t)
                : admission_.admitNow(request, t);
    if (decision != AdmitDecision::Admit)
        return reject(id, admitError(decision));
    return true;
}

std::string
Service::handleFrame(const std::string &frame, double t)
{
    obs::ScopedSpan span("serve.handle", "serve");
    Request request;
    std::string reply;
    if (!admit(frame, 0, t, false, request, reply))
        return reply;
    // This caller is also the worker: it runs the request it parsed,
    // and admission recorded a zero queue wait.
    reply = planner_.execute(request);
    okCounter_.add(1);
    return reply;
}

IngestOutcome
Service::ingest(const std::string &frame, std::uint64_t conn,
                double t)
{
    IngestOutcome outcome;
    Request request;
    outcome.queued = admit(frame, conn, t, true, request, outcome.reply);
    return outcome;
}

std::optional<std::pair<std::uint64_t, std::string>>
Service::processOne(double t)
{
    QueuedItem item;
    if (!admission_.pop(t, item))
        return std::nullopt;
    const std::string reply = planner_.execute(item.request);
    okCounter_.add(1);
    return std::make_pair(item.conn, reply);
}

} // namespace dronedse::serve
