// Differential fuzzing of the compiler + interpreter stack.
//
// Random Kernel-C programs are generated together with a host-side mirror
// evaluator; every program is compiled BOTH with and without the optimizer
// and executed on the simulator, and all three answers (host, -O0, -O2) must
// agree exactly. This catches miscompilations in folding, strength
// reduction, CSE, DCE, unrolling, lowering, and the SIMT execution machinery
// (the control-flow fuzzer intentionally produces heavy divergence).
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <functional>

#include "kcc/compiler.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "vcuda/vcuda.hpp"

namespace kspec {
namespace {

using HostIntFn = std::function<std::uint32_t(std::uint32_t t, std::uint32_t a, std::uint32_t b)>;
using HostFloatFn = std::function<float(std::uint32_t t, float x, float y)>;

struct IntExpr {
  std::string text;
  HostIntFn eval;
};

// Random unsigned-integer expression over {t, a, b, literals}. Unsigned
// arithmetic keeps the host mirror free of signed-overflow UB and matches
// Kernel-C's wrapping semantics exactly.
IntExpr GenIntExpr(Rng& rng, int depth) {
  if (depth <= 0 || rng.NextInt(0, 4) == 0) {
    switch (rng.NextInt(0, 3)) {
      case 0: return {"t", [](std::uint32_t t, std::uint32_t, std::uint32_t) { return t; }};
      case 1: return {"a", [](std::uint32_t, std::uint32_t a, std::uint32_t) { return a; }};
      case 2: return {"b", [](std::uint32_t, std::uint32_t, std::uint32_t b) { return b; }};
      default: {
        std::uint32_t lit = static_cast<std::uint32_t>(rng.NextInt(0, 100));
        return {Format("%uu", lit),
                [lit](std::uint32_t, std::uint32_t, std::uint32_t) { return lit; }};
      }
    }
  }
  IntExpr lhs = GenIntExpr(rng, depth - 1);
  IntExpr rhs = GenIntExpr(rng, depth - 1);
  auto l = lhs.eval, r = rhs.eval;
  switch (rng.NextInt(0, 8)) {
    case 0:
      return {"(" + lhs.text + " + " + rhs.text + ")",
              [l, r](auto t, auto a, auto b) { return l(t, a, b) + r(t, a, b); }};
    case 1:
      return {"(" + lhs.text + " - " + rhs.text + ")",
              [l, r](auto t, auto a, auto b) { return l(t, a, b) - r(t, a, b); }};
    case 2:
      return {"(" + lhs.text + " * " + rhs.text + ")",
              [l, r](auto t, auto a, auto b) { return l(t, a, b) * r(t, a, b); }};
    case 3:
      return {"(" + lhs.text + " & " + rhs.text + ")",
              [l, r](auto t, auto a, auto b) { return l(t, a, b) & r(t, a, b); }};
    case 4:
      return {"(" + lhs.text + " | " + rhs.text + ")",
              [l, r](auto t, auto a, auto b) { return l(t, a, b) | r(t, a, b); }};
    case 5:
      return {"(" + lhs.text + " ^ " + rhs.text + ")",
              [l, r](auto t, auto a, auto b) { return l(t, a, b) ^ r(t, a, b); }};
    case 6:
      // Shift amount masked so host/device agree without clamp semantics.
      return {"(" + lhs.text + " << (" + rhs.text + " & 7u))",
              [l, r](auto t, auto a, auto b) { return l(t, a, b) << (r(t, a, b) & 7u); }};
    default:
      // Division made safe with | 1.
      return {"(" + lhs.text + " / (" + rhs.text + " | 1u))",
              [l, r](auto t, auto a, auto b) { return l(t, a, b) / (r(t, a, b) | 1u); }};
  }
}

struct FloatExpr {
  std::string text;
  HostFloatFn eval;
};

// A float literal's value as the compiler reads it: parsed as a double,
// then rounded to float.
float FloatLiteral(const std::string& text) {
  return static_cast<float>(std::strtod(text.c_str(), nullptr));
}

// Random float expression over {t, x, y, literals}. Literals are exact
// quarters or inexact three-decimal values; the math intrinsics mirror the
// run time's float rules (fmaf is its unfused mad, rsqrtf a float divide).
FloatExpr GenFloatExpr(Rng& rng, int depth) {
  if (depth <= 0 || rng.NextInt(0, 4) == 0) {
    switch (rng.NextInt(0, 4)) {
      case 0:
        return {"(float)t", [](std::uint32_t t, float, float) { return static_cast<float>(t); }};
      case 1: return {"x", [](std::uint32_t, float x, float) { return x; }};
      case 2: return {"y", [](std::uint32_t, float, float y) { return y; }};
      case 3: {
        float lit = static_cast<float>(rng.NextInt(1, 40)) * 0.25f;
        return {Format("%.2ff", lit), [lit](std::uint32_t, float, float) { return lit; }};
      }
      default: {
        const std::int64_t k = rng.NextInt(1, 9999);
        const std::string text = Format("%d.%03df", static_cast<int>(k / 1000),
                                        static_cast<int>(k % 1000));
        const float lit = FloatLiteral(text);
        return {text, [lit](std::uint32_t, float, float) { return lit; }};
      }
    }
  }
  FloatExpr lhs = GenFloatExpr(rng, depth - 1);
  auto l = lhs.eval;
  auto unary = [&](const char* name, float (*fn)(float)) -> FloatExpr {
    return {std::string(name) + "(" + lhs.text + ")",
            [l, fn](auto t, auto x, auto y) { return fn(l(t, x, y)); }};
  };
  switch (rng.NextInt(0, 10)) {
    case 5: return unary("rsqrtf", [](float v) { return 1.0f / std::sqrt(v); });
    case 6: return unary("sinf", [](float v) { return std::sin(v); });
    case 7: return unary("cosf", [](float v) { return std::cos(v); });
    case 8: return unary("expf", [](float v) { return std::exp(v); });
    case 9: return unary("logf", [](float v) { return std::log(v); });
    default: break;
  }
  FloatExpr rhs = GenFloatExpr(rng, depth - 1);
  auto r = rhs.eval;
  switch (rng.NextInt(0, 5)) {
    case 0:
      return {"(" + lhs.text + " + " + rhs.text + ")",
              [l, r](auto t, auto x, auto y) { return l(t, x, y) + r(t, x, y); }};
    case 1:
      return {"(" + lhs.text + " - " + rhs.text + ")",
              [l, r](auto t, auto x, auto y) { return l(t, x, y) - r(t, x, y); }};
    case 2:
      return {"(" + lhs.text + " * " + rhs.text + ")",
              [l, r](auto t, auto x, auto y) { return l(t, x, y) * r(t, x, y); }};
    case 3:
      return {"fminf(" + lhs.text + ", " + rhs.text + ")",
              [l, r](auto t, auto x, auto y) { return std::min(l(t, x, y), r(t, x, y)); }};
    case 4:
      return {"fmaxf(" + lhs.text + ", " + rhs.text + ")",
              [l, r](auto t, auto x, auto y) { return std::max(l(t, x, y), r(t, x, y)); }};
    default: {
      FloatExpr addend = GenFloatExpr(rng, depth - 1);
      auto c = addend.eval;
      return {"fmaf(" + lhs.text + ", " + rhs.text + ", " + addend.text + ")",
              [l, r, c](auto t, auto x, auto y) {
                const float product = l(t, x, y) * r(t, x, y);
                return product + c(t, x, y);
              }};
    }
  }
}

std::uint32_t Bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// Runs `source` (kernel f, one output per thread) optimized and unoptimized;
// returns both outputs.
template <typename T>
std::pair<std::vector<T>, std::vector<T>> RunBothWays(
    const std::string& source, unsigned threads,
    const std::function<void(vcuda::ArgPack&)>& bind_scalars) {
  std::pair<std::vector<T>, std::vector<T>> out;
  for (bool optimize : {true, false}) {
    vcuda::Context ctx(vgpu::TeslaC1060());
    kcc::CompileOptions opts;
    opts.optimize = optimize;
    auto mod = ctx.LoadModule(source, opts);
    auto d_out = ctx.Malloc(threads * sizeof(T));
    vcuda::ArgPack args;
    args.Ptr(d_out);
    bind_scalars(args);
    ctx.Launch(*mod, "f", vgpu::Dim3(1), vgpu::Dim3(threads), args);
    auto res = vcuda::Download<T>(ctx, d_out, threads);
    (optimize ? out.first : out.second) = std::move(res);
  }
  return out;
}

TEST(FuzzDifferential, IntegerExpressions) {
  Rng rng(20260705);
  const unsigned threads = 32;
  for (int trial = 0; trial < 60; ++trial) {
    IntExpr e = GenIntExpr(rng, 4);
    std::uint32_t a = static_cast<std::uint32_t>(rng.NextInt(0, 1000));
    std::uint32_t b = static_cast<std::uint32_t>(rng.NextInt(0, 1000));
    std::string src = Format(R"(
__kernel void f(unsigned int* out, unsigned int a, unsigned int b) {
  unsigned int t = threadIdx.x;
  out[t] = %s;
}
)", e.text.c_str());
    auto [opt, noopt] = RunBothWays<std::uint32_t>(
        src, threads, [&](vcuda::ArgPack& args) { args.Uint(a).Uint(b); });
    for (unsigned t = 0; t < threads; ++t) {
      std::uint32_t expect = e.eval(t, a, b);
      ASSERT_EQ(opt[t], expect) << "trial " << trial << " lane " << t << " expr " << e.text;
      ASSERT_EQ(noopt[t], expect) << "(unoptimized) trial " << trial << " expr " << e.text;
    }
  }
}

TEST(FuzzDifferential, FloatExpressions) {
  Rng rng(77001122);
  const unsigned threads = 32;
  for (int trial = 0; trial < 60; ++trial) {
    FloatExpr e = GenFloatExpr(rng, 4);
    float x = 0.5f * static_cast<float>(rng.NextInt(-8, 8));
    float y = 0.25f * static_cast<float>(rng.NextInt(1, 16));
    std::string src = Format(R"(
__kernel void f(float* out, float x, float y) {
  unsigned int t = threadIdx.x;
  out[t] = %s;
}
)", e.text.c_str());
    auto [opt, noopt] = RunBothWays<float>(
        src, threads, [&](vcuda::ArgPack& args) { args.Float(x).Float(y); });
    for (unsigned t = 0; t < threads; ++t) {
      // Same single-precision operations in the same order: identical bits.
      const std::uint32_t expect = Bits(e.eval(t, x, y));
      ASSERT_EQ(Bits(opt[t]), expect) << "trial " << trial << " lane " << t << " expr " << e.text;
      ASSERT_EQ(Bits(noopt[t]), expect) << "(unoptimized) trial " << trial;
    }
  }
}

// Random nested control flow: heavy intra-warp divergence with data-dependent
// branches and loops, mirrored on the host.
TEST(FuzzDifferential, DivergentControlFlow) {
  Rng rng(31415926);
  const unsigned threads = 64;
  for (int trial = 0; trial < 40; ++trial) {
    std::uint32_t k1 = static_cast<std::uint32_t>(rng.NextInt(1, 63));
    std::uint32_t k2 = static_cast<std::uint32_t>(rng.NextInt(2, 7));
    // k3 <= k1 keeps `j -= k3` from wrapping below k1 (j > k1 >= k3 implies
    // j - k3 >= 0): the while loop provably terminates in both mirrors.
    std::uint32_t k3 =
        static_cast<std::uint32_t>(rng.NextInt(1, std::min<std::int64_t>(k1, 5)));
    std::uint32_t c1 = static_cast<std::uint32_t>(rng.NextInt(1, 9));
    std::uint32_t c2 = static_cast<std::uint32_t>(rng.NextInt(1, 9));

    std::string src = Format(R"(
__kernel void f(unsigned int* out, unsigned int k1, unsigned int k2, unsigned int k3) {
  unsigned int t = threadIdx.x;
  unsigned int acc = 0u;
  if (t < k1) {
    if (t %% k2 == 0u) {
      acc += %uu;
    } else {
      acc += t * %uu;
    }
    for (unsigned int i = 0u; i < (t %% k3) + 1u; i = i + 1u) {
      acc += i;
    }
  } else {
    unsigned int j = t;
    while (j > k1) {
      j = j - k3;
      acc += 1u;
    }
  }
  out[t] = acc;
}
)", c1, c2);

    auto host = [&](std::uint32_t t) {
      std::uint32_t acc = 0;
      if (t < k1) {
        if (t % k2 == 0) acc += c1;
        else acc += t * c2;
        for (std::uint32_t i = 0; i < (t % k3) + 1; ++i) acc += i;
      } else {
        std::uint32_t j = t;
        while (j > k1) {
          j -= k3;
          acc += 1;
        }
      }
      return acc;
    };

    auto [opt, noopt] = RunBothWays<std::uint32_t>(
        src, threads, [&](vcuda::ArgPack& args) { args.Uint(k1).Uint(k2).Uint(k3); });
    for (unsigned t = 0; t < threads; ++t) {
      ASSERT_EQ(opt[t], host(t)) << "trial " << trial << " lane " << t;
      ASSERT_EQ(noopt[t], host(t)) << "(unoptimized) trial " << trial << " lane " << t;
    }
  }
}

// Rewrites the kernel body's references to the one-letter scalars in `vars`
// (not member names like threadIdx.x) to `<LETTER>_VAL` macros, which
// default to the scalar itself.
std::string Specializable(const std::string& src, const std::string& vars) {
  std::string out;
  for (char v : vars) {
    const char upper = static_cast<char>(std::toupper(static_cast<unsigned char>(v)));
    out += Format("#ifndef %c_VAL\n#define %c_VAL %c\n#endif\n", upper, upper, v);
  }
  auto ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
  };
  const std::size_t body = src.find('{');
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const bool alone =
        (i == 0 || !ident(src[i - 1])) && (i + 1 == src.size() || !ident(src[i + 1]));
    if (i > body && alone && vars.find(c) != std::string::npos) {
      out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      out += "_VAL";
    } else {
      out += c;
    }
  }
  return out;
}

// Runs kernel f of `src` over one warp with the scalars `bind` adds after
// the output pointer; returns each lane's 32-bit output.
std::vector<std::uint32_t> RunOnce(const std::string& src, const kcc::CompileOptions& opts,
                                   const std::function<void(vcuda::ArgPack&)>& bind) {
  const unsigned threads = 32;
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(src, opts);
  auto d_out = ctx.Malloc(threads * 4);
  vcuda::ArgPack args;
  args.Ptr(d_out);
  bind(args);
  ctx.Launch(*mod, "f", vgpu::Dim3(1), vgpu::Dim3(threads), args);
  return vcuda::Download<std::uint32_t>(ctx, d_out, threads);
}

// Specialization equivalence under fuzz: for random expressions, compiling
// with the scalars baked in as -D constants must produce the same bits as
// passing them at run time (the core soundness property of the technique).
// Trials alternate between unsigned and float expressions; the float scalars
// are inexact three-decimal literals.
TEST(FuzzDifferential, SpecializedEqualsRunTimeEvaluated) {
  Rng rng(998877);
  for (int trial = 0; trial < 40; ++trial) {
    std::string text, src;
    kcc::CompileOptions sk;
    std::function<void(vcuda::ArgPack&)> bind;
    std::function<std::uint32_t(std::uint32_t)> host;
    if (trial % 2 == 0) {
      IntExpr e = GenIntExpr(rng, 4);
      const std::uint32_t a = static_cast<std::uint32_t>(rng.NextInt(0, 500));
      const std::uint32_t b = static_cast<std::uint32_t>(rng.NextInt(0, 500));
      text = e.text;
      src = Specializable(Format(R"(
__kernel void f(unsigned int* out, unsigned int a, unsigned int b) {
  unsigned int t = threadIdx.x;
  out[t] = %s;
}
)", e.text.c_str()), "ab");
      sk.defines["A_VAL"] = Format("%uu", a);
      sk.defines["B_VAL"] = Format("%uu", b);
      bind = [a, b](vcuda::ArgPack& args) { args.Uint(a).Uint(b); };
      host = [e, a, b](std::uint32_t t) { return e.eval(t, a, b); };
    } else {
      FloatExpr e = GenFloatExpr(rng, 4);
      auto literal = [&](std::int64_t lo, std::int64_t hi) {
        const std::int64_t k = rng.NextInt(lo, hi);
        return Format("%s%d.%03df", k < 0 ? "-" : "", static_cast<int>(std::abs(k) / 1000),
                      static_cast<int>(std::abs(k) % 1000));
      };
      const std::string x_text = literal(-9999, 9999), y_text = literal(1, 9999);
      const float x = FloatLiteral(x_text), y = FloatLiteral(y_text);
      text = e.text;
      src = Specializable(Format(R"(
__kernel void f(float* out, float x, float y) {
  unsigned int t = threadIdx.x;
  out[t] = %s;
}
)", e.text.c_str()), "xy");
      sk.defines["X_VAL"] = "(" + x_text + ")";
      sk.defines["Y_VAL"] = "(" + y_text + ")";
      bind = [x, y](vcuda::ArgPack& args) { args.Float(x).Float(y); };
      host = [e, x, y](std::uint32_t t) { return Bits(e.eval(t, x, y)); };
    }
    const std::vector<std::uint32_t> re = RunOnce(src, {}, bind);
    const std::vector<std::uint32_t> skr = RunOnce(src, sk, bind);
    for (unsigned t = 0; t < re.size(); ++t) {
      ASSERT_EQ(re[t], skr[t]) << "trial " << trial << " lane " << t << " expr " << text;
      ASSERT_EQ(re[t], host(t)) << "host mismatch, trial " << trial << " expr " << text;
    }
  }
}

}  // namespace
}  // namespace kspec
