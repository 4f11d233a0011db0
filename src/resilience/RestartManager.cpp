// crocco-analyze:allow-file(R1): restart files are written/read as raw fab
// payload bytes; the CRC32 stamp covers exactly that raw span.
#include "resilience/RestartManager.hpp"

#include "resilience/Crc32.hpp"
#include "resilience/Health.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace crocco::resilience {

namespace fs = std::filesystem;

namespace {
constexpr const char* kPrefix = "chk";
} // namespace

RestartManager::RestartManager(std::string root, int keepLast)
    : root_(std::move(root)), keepLast_(keepLast) {
    if (keepLast_ < 1)
        throw std::invalid_argument("RestartManager: keepLast must be >= 1");
    fs::create_directories(root_);
}

std::string RestartManager::dirFor(int step) const {
    std::ostringstream os;
    os << root_ << '/' << kPrefix;
    const std::string s = std::to_string(step);
    for (std::size_t i = s.size(); i < 6; ++i) os << '0';
    os << s;
    return os.str();
}

int RestartManager::stepOf(const std::string& dir) {
    const std::string name = fs::path(dir).filename().string();
    if (name.rfind(kPrefix, 0) != 0) return -1;
    const std::string digits = name.substr(3);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
        return -1;
    return std::stoi(digits);
}

std::string RestartManager::write(int step, const CheckpointFn& writer) {
    const std::string dir = dirFor(step);
    writer(dir);
    // Prune: keep only the newest keepLast_ checkpoints.
    auto dirs = available();
    for (std::size_t i = static_cast<std::size_t>(keepLast_); i < dirs.size();
         ++i) {
        std::error_code ec;
        fs::remove_all(dirs[i], ec); // best effort; stale dirs are harmless
    }
    return dir;
}

std::vector<std::string> RestartManager::available() const {
    std::vector<std::string> dirs;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(root_, ec)) {
        if (!e.is_directory()) continue;
        if (stepOf(e.path().string()) >= 0) dirs.push_back(e.path().string());
    }
    std::sort(dirs.begin(), dirs.end(), [](const auto& a, const auto& b) {
        return stepOf(a) > stepOf(b);
    });
    return dirs;
}

bool RestartManager::verify(const std::string& dir, std::string* why) {
    auto fail = [&](const std::string& reason) {
        if (why) *why = dir + ": " + reason;
        return false;
    };
    std::ifstream hdr(dir + "/header.txt");
    if (!hdr) return fail("cannot open header.txt");
    std::string magic;
    int version = 0;
    hdr >> magic >> version;
    if (magic != "crocco-checkpoint" || version != 2)
        return fail("unrecognized header magic/version");
    double time = 0;
    int step = 0, finest = 0;
    hdr >> time >> step >> finest;
    if (!hdr || finest < 0) return fail("malformed header");
    for (int lev = 0; lev <= finest; ++lev) {
        int nboxes = 0;
        std::uint32_t crc = 0;
        std::uint64_t nbytes = 0;
        hdr >> nboxes >> crc >> nbytes;
        if (!hdr || nboxes < 0)
            return fail("malformed level " + std::to_string(lev) + " record");
        for (int i = 0; i < nboxes; ++i) {
            int lo0, lo1, lo2, hi0, hi1, hi2, owner;
            hdr >> lo0 >> lo1 >> lo2 >> hi0 >> hi1 >> hi2 >> owner;
        }
        if (!hdr)
            return fail("malformed box list at level " + std::to_string(lev));
        const std::string path = dir + "/level" + std::to_string(lev) + ".bin";
        std::ifstream bin(path, std::ios::binary);
        if (!bin) return fail("missing " + path);
        std::vector<char> buf((std::istreambuf_iterator<char>(bin)),
                              std::istreambuf_iterator<char>());
        if (buf.size() != nbytes)
            return fail(path + " truncated: expected " +
                        std::to_string(nbytes) + " B, found " +
                        std::to_string(buf.size()) + " B");
        if (crc32(buf.data(), buf.size()) != crc)
            return fail("CRC32 mismatch in " + path);
    }
    return true;
}

std::string RestartManager::restoreLatest(const CheckpointFn& reader) const {
    std::string failures;
    for (const std::string& dir : available()) {
        std::string why;
        if (!verify(dir, &why)) {
            failures += "\n  " + why;
            continue;
        }
        try {
            reader(dir);
            return dir;
        } catch (const std::exception& e) {
            failures += "\n  " + dir + ": " + e.what();
        }
    }
    throw std::runtime_error("RestartManager: no restorable checkpoint under " +
                             root_ + (failures.empty() ? " (none found)"
                                                       : failures));
}

} // namespace crocco::resilience
