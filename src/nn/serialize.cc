#include "nn/serialize.hh"

#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "nn/cell_descriptor.hh"

namespace nlfm::nn
{

namespace
{

constexpr char magic[8] = {'N', 'L', 'F', 'M', 'R', 'N', 'N', '1'};

struct FileHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t cellType;
    std::uint64_t inputSize;
    std::uint64_t hiddenSize;
    std::uint64_t layers;
    std::uint32_t bidirectional;
    std::uint32_t peepholes;
};

class File
{
  public:
    File(const std::string &path, const char *mode)
        : handle_(std::fopen(path.c_str(), mode)), path_(path)
    {
        if (!handle_)
            nlfm_fatal("cannot open ", path, " (mode ", mode, ")");
    }

    ~File()
    {
        if (handle_)
            std::fclose(handle_);
    }

    File(const File &) = delete;
    File &operator=(const File &) = delete;

    // Zero-byte transfers return early: an empty tensor's data() may be
    // null, and fread/fwrite declare their buffer nonnull.
    void
    write(const void *data, std::size_t bytes)
    {
        if (bytes == 0)
            return;
        if (std::fwrite(data, 1, bytes, handle_) != bytes)
            nlfm_fatal("short write to ", path_);
    }

    void
    read(void *data, std::size_t bytes)
    {
        if (bytes == 0)
            return;
        if (std::fread(data, 1, bytes, handle_) != bytes)
            nlfm_fatal("short read from ", path_,
                       " (truncated or corrupt file)");
    }

  private:
    std::FILE *handle_;
    std::string path_;
};

void
writeFloats(File &file, std::span<const float> values)
{
    const auto count = static_cast<std::uint64_t>(values.size());
    file.write(&count, sizeof(count));
    file.write(values.data(), values.size() * sizeof(float));
}

void
readFloats(File &file, std::span<float> values)
{
    std::uint64_t count = 0;
    file.read(&count, sizeof(count));
    if (count != values.size())
        nlfm_fatal("weight block size mismatch: file has ", count,
                   ", network expects ", values.size());
    file.read(values.data(), values.size() * sizeof(float));
}

} // namespace

void
saveNetwork(const RnnNetwork &network, const std::string &path)
{
    const RnnConfig &config = network.config();
    File file(path, "wb");

    FileHeader header{};
    std::memcpy(header.magic, magic, sizeof(magic));
    // Version 1 predates the pluggable cell registry and only ever held
    // LSTM/GRU networks; keep emitting it for those two so their files
    // stay byte-identical across the refactor. Registry-era families
    // are stamped version 2 (same layout, wider cellType domain).
    header.version =
        config.cellType <= CellType::Gru ? 1 : 2;
    header.cellType = static_cast<std::uint32_t>(config.cellType);
    header.inputSize = config.inputSize;
    header.hiddenSize = config.hiddenSize;
    header.layers = config.layers;
    header.bidirectional = config.bidirectional ? 1 : 0;
    header.peepholes = config.peepholes ? 1 : 0;
    file.write(&header, sizeof(header));

    for (const auto &inst : network.gateInstances()) {
        const GateParams &params = network.gateParams(inst.instanceId);
        writeFloats(file, params.wx.data());
        writeFloats(file, params.wh.data());
        writeFloats(file, params.bias);
        writeFloats(file, params.peephole);
    }
}

std::unique_ptr<RnnNetwork>
loadNetwork(const std::string &path)
{
    File file(path, "rb");
    FileHeader header{};
    file.read(&header, sizeof(header));
    if (std::memcmp(header.magic, magic, sizeof(magic)) != 0)
        nlfm_fatal(path, " is not an NLFM network file");
    if (header.version != 1 && header.version != 2)
        nlfm_fatal("unsupported network file version ", header.version);
    if (!isKnownCellType(header.cellType))
        nlfm_fatal(path, " holds an unknown cell family id ",
                   header.cellType, "; this build knows ",
                   knownCellNames());
    if (header.version == 1 &&
        header.cellType > static_cast<std::uint32_t>(CellType::Gru))
        nlfm_fatal(path, " is corrupt: version 1 files predate cell "
                         "family ",
                   cellTypeName(static_cast<CellType>(header.cellType)));

    RnnConfig config;
    config.cellType = static_cast<CellType>(header.cellType);
    config.inputSize = header.inputSize;
    config.hiddenSize = header.hiddenSize;
    config.layers = header.layers;
    config.bidirectional = header.bidirectional != 0;
    config.peepholes = header.peepholes != 0;

    auto network = std::make_unique<RnnNetwork>(config);
    for (const auto &inst : network->gateInstances()) {
        GateParams &params = network->gateParams(inst.instanceId);
        readFloats(file, params.wx.data());
        readFloats(file, params.wh.data());
        readFloats(file, params.bias);
        readFloats(file, params.peephole);
    }
    return network;
}

} // namespace nlfm::nn
