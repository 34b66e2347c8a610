#include "kcc/serialize.hpp"

#include "support/serialize.hpp"

namespace kspec::kcc {

namespace {

const EnvelopeFormat& FormatOf(ArtifactKind kind) {
  static constexpr EnvelopeFormat kModule = {{'K', 'S', 'P', 'C', 'M', 'O', 'D', '1'},
                                             kModuleFormatVersion, "module"};
  static constexpr EnvelopeFormat kNative = {{'K', 'S', 'P', 'C', 'N', 'S', 'O', '1'},
                                             kNativeFormatVersion, "native"};
  return kind == ArtifactKind::kModule ? kModule : kNative;
}

template <typename E>
E DecodeEnum(std::uint8_t raw, E max_value, const char* what) {
  if (raw > static_cast<std::uint8_t>(max_value)) {
    throw SerializeError(std::string("invalid ") + what + " value " + std::to_string(raw));
  }
  return static_cast<E>(raw);
}

void PutOperand(ByteWriter& w, const vgpu::Operand& op) {
  w.U8(static_cast<std::uint8_t>(op.kind));
  w.I32(op.reg);
  w.U64(op.imm);
}

vgpu::Operand GetOperand(ByteReader& r) {
  vgpu::Operand op;
  op.kind = DecodeEnum(r.U8(), vgpu::Operand::Kind::kImm, "operand kind");
  op.reg = r.I32();
  op.imm = r.U64();
  return op;
}

void PutInstr(ByteWriter& w, const vgpu::Instr& in) {
  w.U8(static_cast<std::uint8_t>(in.op));
  w.U8(static_cast<std::uint8_t>(in.type));
  w.U8(static_cast<std::uint8_t>(in.type2));
  w.U8(static_cast<std::uint8_t>(in.cmp));
  w.U8(static_cast<std::uint8_t>(in.space));
  w.U8(in.neg ? 1 : 0);
  w.I32(in.dst);
  PutOperand(w, in.a);
  PutOperand(w, in.b);
  PutOperand(w, in.c);
  w.I32(in.target);
  w.I32(in.reconv);
}

vgpu::Instr GetInstr(ByteReader& r) {
  vgpu::Instr in;
  in.op = DecodeEnum(r.U8(), vgpu::Opcode::kTex1D, "opcode");
  in.type = DecodeEnum(r.U8(), vgpu::Type::kF64, "type");
  in.type2 = DecodeEnum(r.U8(), vgpu::Type::kF64, "type2");
  in.cmp = DecodeEnum(r.U8(), vgpu::CmpOp::kGe, "cmp op");
  in.space = DecodeEnum(r.U8(), vgpu::Space::kParam, "space");
  in.neg = r.U8() != 0;
  in.dst = r.I32();
  in.a = GetOperand(r);
  in.b = GetOperand(r);
  in.c = GetOperand(r);
  in.target = r.I32();
  in.reconv = r.I32();
  return in;
}

void PutKernel(ByteWriter& w, const vgpu::CompiledKernel& k) {
  w.Str(k.name);
  w.U32(static_cast<std::uint32_t>(k.code.size()));
  for (const auto& in : k.code) PutInstr(w, in);
  w.U32(static_cast<std::uint32_t>(k.params.size()));
  for (const auto& p : k.params) {
    w.Str(p.name);
    w.U8(static_cast<std::uint8_t>(p.type));
  }
  w.I32(k.num_vregs);
  w.U32(k.static_smem_bytes);
  w.U32(static_cast<std::uint32_t>(k.ilp_at_pc.size()));
  for (float f : k.ilp_at_pc) w.F32(f);
  w.I32(k.stats.reg_count);
  w.I32(k.stats.static_instrs);
  w.I32(k.stats.unrolled_loops);
  w.I32(k.stats.folded_consts);
  w.I32(k.stats.strength_reduced);
  w.Str(k.listing);
}

vgpu::CompiledKernel GetKernel(ByteReader& r) {
  vgpu::CompiledKernel k;
  k.name = r.Str();
  std::uint32_t n_code = r.U32();
  k.code.reserve(n_code);
  for (std::uint32_t i = 0; i < n_code; ++i) k.code.push_back(GetInstr(r));
  std::uint32_t n_params = r.U32();
  k.params.reserve(n_params);
  for (std::uint32_t i = 0; i < n_params; ++i) {
    vgpu::KernelParam p;
    p.name = r.Str();
    p.type = DecodeEnum(r.U8(), vgpu::Type::kF64, "param type");
    k.params.push_back(std::move(p));
  }
  k.num_vregs = r.I32();
  k.static_smem_bytes = r.U32();
  std::uint32_t n_ilp = r.U32();
  k.ilp_at_pc.reserve(n_ilp);
  for (std::uint32_t i = 0; i < n_ilp; ++i) k.ilp_at_pc.push_back(r.F32());
  k.stats.reg_count = r.I32();
  k.stats.static_instrs = r.I32();
  k.stats.unrolled_loops = r.I32();
  k.stats.folded_consts = r.I32();
  k.stats.strength_reduced = r.I32();
  k.listing = r.Str();
  return k;
}

}  // namespace

std::vector<std::uint8_t> SealEnvelope(ArtifactKind kind, const std::string& key_text,
                                       std::span<const std::uint8_t> body) {
  ByteWriter payload;
  payload.Str(key_text);
  payload.Raw(body.data(), body.size());
  return kspec::SealEnvelope(FormatOf(kind), payload.bytes());
}

std::span<const std::uint8_t> OpenEnvelope(ArtifactKind kind, std::span<const std::uint8_t> bytes,
                                           std::string* key_text) {
  ByteReader r(kspec::OpenEnvelope(FormatOf(kind), bytes));
  std::string stored_key = r.Str();
  if (key_text) *key_text = std::move(stored_key);
  return r.Rest();
}

CompiledModule DecodeModuleBody(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  CompiledModule mod;
  std::uint32_t n_kernels = r.U32();
  mod.kernels.reserve(n_kernels);
  for (std::uint32_t i = 0; i < n_kernels; ++i) mod.kernels.push_back(GetKernel(r));
  std::uint32_t n_constants = r.U32();
  mod.constants.reserve(n_constants);
  for (std::uint32_t i = 0; i < n_constants; ++i) {
    ConstantInfo c;
    c.name = r.Str();
    c.elem = DecodeEnum(r.U8(), vgpu::Type::kF64, "constant elem type");
    c.count = r.I64();
    c.offset = r.U32();
    c.bytes = r.U32();
    mod.constants.push_back(std::move(c));
  }
  std::uint32_t n_textures = r.U32();
  mod.textures.reserve(n_textures);
  for (std::uint32_t i = 0; i < n_textures; ++i) mod.textures.push_back(r.Str());
  mod.const_bytes = r.U32();
  mod.compile_millis = r.F64();
  if (!r.AtEnd()) {
    throw SerializeError(std::to_string(r.remaining()) + " trailing bytes after module");
  }
  return mod;
}

std::span<const std::uint8_t> DecodeNativeBody(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  const std::uint64_t so_size = r.U64();
  if (so_size != r.remaining()) {
    throw SerializeError("shared object size mismatch: payload says " + std::to_string(so_size) +
                         ", artifact has " + std::to_string(r.remaining()));
  }
  return r.Rest();
}

std::vector<std::uint8_t> Serialize(const CompiledModule& mod, const std::string& key_text) {
  ByteWriter body;
  body.U32(static_cast<std::uint32_t>(mod.kernels.size()));
  for (const auto& k : mod.kernels) PutKernel(body, k);
  body.U32(static_cast<std::uint32_t>(mod.constants.size()));
  for (const auto& c : mod.constants) {
    body.Str(c.name);
    body.U8(static_cast<std::uint8_t>(c.elem));
    body.I64(c.count);
    body.U32(c.offset);
    body.U32(c.bytes);
  }
  body.U32(static_cast<std::uint32_t>(mod.textures.size()));
  for (const auto& t : mod.textures) body.Str(t);
  body.U32(mod.const_bytes);
  body.F64(mod.compile_millis);
  return SealEnvelope(ArtifactKind::kModule, key_text, body.bytes());
}

CompiledModule Deserialize(std::span<const std::uint8_t> bytes, std::string* key_text) {
  return DecodeModuleBody(OpenEnvelope(ArtifactKind::kModule, bytes, key_text));
}

std::vector<std::uint8_t> SerializeNative(std::span<const std::uint8_t> so_bytes,
                                          const std::string& key_text) {
  ByteWriter body;
  body.U64(so_bytes.size());
  body.Raw(so_bytes.data(), so_bytes.size());
  return SealEnvelope(ArtifactKind::kNative, key_text, body.bytes());
}

std::vector<std::uint8_t> DeserializeNative(std::span<const std::uint8_t> bytes,
                                            std::string* key_text) {
  const std::span<const std::uint8_t> so =
      DecodeNativeBody(OpenEnvelope(ArtifactKind::kNative, bytes, key_text));
  return std::vector<std::uint8_t>(so.begin(), so.end());
}

std::size_t ApproxModuleBytes(const CompiledModule& mod) {
  std::size_t total = sizeof(CompiledModule);
  for (const auto& k : mod.kernels) {
    total += sizeof(vgpu::CompiledKernel);
    total += k.name.size() + k.listing.size();
    total += k.code.size() * sizeof(vgpu::Instr);
    total += k.ilp_at_pc.size() * sizeof(float);
    for (const auto& p : k.params) total += sizeof(vgpu::KernelParam) + p.name.size();
  }
  for (const auto& c : mod.constants) total += sizeof(ConstantInfo) + c.name.size();
  for (const auto& t : mod.textures) total += sizeof(std::string) + t.size();
  return total;
}

}  // namespace kspec::kcc
