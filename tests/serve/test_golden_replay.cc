/**
 * Golden replay: every frame of tests/serve/golden/corpus.txt goes
 * through `Service::handleFrame` at 1 and 4 engine threads, and once
 * through `dse_server --stdio`, and each reply must equal the one the
 * corpus stores (for a long reply, its length and FNV-1a digest).
 * The corpus covers every query kind, every reason the reader
 * rejects a frame for, and the lenient-read rules; make_corpus.py
 * beside it lists the frames and regenerates it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "serve/service.hh"

using namespace dronedse;
using namespace dronedse::serve;

namespace {

struct GoldenRecord
{
    std::string label;
    std::string frame;
    /** The whole reply, or "fnv1a64 <length> <hex digest>". */
    std::string reply;
};

std::vector<GoldenRecord>
loadCorpus()
{
    std::ifstream in(DRONEDSE_GOLDEN_CORPUS, std::ios::binary);
    std::vector<GoldenRecord> records;
    std::string line;
    while (std::getline(in, line)) {
        if (line.starts_with("#"))
            continue;
        GoldenRecord record;
        if (!line.starts_with("== ") || !std::getline(in, record.frame) ||
            !std::getline(in, record.reply)) {
            ADD_FAILURE() << "malformed corpus record: " << line;
            return {};
        }
        record.label = line.substr(3);
        records.push_back(std::move(record));
    }
    EXPECT_GE(records.size(), 200u) << DRONEDSE_GOLDEN_CORPUS;
    return records;
}

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** `reply` as the corpus spells it. */
std::string
stored(const std::string &reply)
{
    if (reply.size() <= 4096)
        return reply;
    char digest[64];
    std::snprintf(digest, sizeof digest, "fnv1a64 %zu %016llx",
                  reply.size(),
                  static_cast<unsigned long long>(fnv1a64(reply)));
    return digest;
}

void
expectReplies(const std::vector<GoldenRecord> &records,
              const std::vector<std::string> &replies)
{
    ASSERT_EQ(replies.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(stored(replies[i]), records[i].reply)
            << "record " << i << ": " << records[i].label;
}

void
replayThroughHandleFrame(int threads)
{
    const std::vector<GoldenRecord> records = loadCorpus();
    ServiceOptions options;
    options.engine.threads = threads;
    Service service{options};
    // dse_server --stdio's clock: 1 ms per frame from zero.
    std::vector<std::string> replies;
    double t = 0.0;
    for (const GoldenRecord &record : records) {
        replies.push_back(service.handleFrame(record.frame, t));
        t += 1e-3;
    }
    expectReplies(records, replies);
}

} // namespace

TEST(GoldenReplay, HandleFrameOneThread)
{
    replayThroughHandleFrame(1);
}

TEST(GoldenReplay, HandleFrameFourThreads)
{
    replayThroughHandleFrame(4);
}

TEST(GoldenReplay, DseServerStdio)
{
    const std::vector<GoldenRecord> records = loadCorpus();
    const std::string input = ::testing::TempDir() + "golden_frames_" +
                              std::to_string(getpid()) + ".txt";
    {
        std::ofstream out(input, std::ios::binary);
        for (const GoldenRecord &record : records)
            out << record.frame << '\n';
    }
    const std::string command =
        "'" DRONEDSE_DSE_SERVER "' --stdio < '" + input + "'";
    FILE *pipe = popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr) << command;
    std::string output;
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        output.append(buf, n);
    EXPECT_EQ(pclose(pipe), 0) << command;
    std::remove(input.c_str());

    std::vector<std::string> replies;
    std::size_t start = 0;
    for (std::size_t end; (end = output.find('\n', start)) !=
                          std::string::npos;
         start = end + 1)
        replies.push_back(output.substr(start, end - start));
    EXPECT_EQ(start, output.size()) << "unterminated last reply";
    expectReplies(records, replies);
}
