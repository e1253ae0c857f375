// DNN layers with float training and a quantized/approximate inference
// path (Section IV).
//
// Execution modes:
//   kFloat       — plain float forward (training, calibration);
//   kQuantExact  — 8-bit linear quantization, exact integer MACs;
//   kQuantApprox — 8-bit quantization with an approximate multiplier
//                  behavioural table in every MAC (ProxSim semantics).
// Backward is always the float path (the paper's Eq. 2: gradients of
// the ACCURATE function — the approximate op has no useful gradient),
// evaluated at the activations the forward pass actually produced
// (straight-through estimation).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "nn/quant.hpp"
#include "nn/tensor.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace nga::prof {
class LayerProfiler;
}

namespace nga::nn {

using util::u64;

enum class Mode { kFloat, kQuantExact, kQuantApprox };

class ResilienceGuard;
class LayerHealthRecorder;

/// Shared execution context: mode + the active multiplier table.
struct Exec {
  Mode mode = Mode::kFloat;
  const MulTable* mul = nullptr;   ///< required in kQuantApprox
  bool calibrate = false;          ///< update activation ranges (float)
  ResilienceGuard* guard = nullptr;  ///< per-layer degradation watchdog
  /// Per-layer numeric-health attribution (nn/health.hpp); single
  /// threaded, one per model replica like the guard.
  LayerHealthRecorder* health = nullptr;
  /// Per-layer performance attribution (prof/attribution.hpp); single
  /// threaded, one per model replica like the health recorder.
  prof::LayerProfiler* prof = nullptr;
  /// Cooperative cancellation (nga::guard watchdog): checked between
  /// layers and between batch samples. A cancelled forward returns
  /// early with a partial result the caller must discard.
  const std::atomic<bool>* cancel = nullptr;
  /// Liveness ticks for the watchdog monitor: bumped once per layer so
  /// a progressing (if slow) forward is distinguishable from a hung
  /// one.
  std::atomic<util::u64>* heartbeat = nullptr;
  /// Per-layer activation capture: when set, Model::forward appends a
  /// copy of every layer's output here (forward order). Used by the
  /// nga::quality shadow lane's dual-run error attribution — never set
  /// on the serving hot path, where the null check is the whole cost.
  std::vector<Tensor>* capture = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;
  virtual Tensor forward(const Tensor& x, const Exec& ex) = 0;
  virtual Tensor backward(const Tensor& dy) = 0;
  virtual void step(float /*lr*/, float /*momentum*/, float /*batch_inv*/) {}
  virtual std::size_t param_count() const { return 0; }
  virtual u64 macs() const { return 0; }  ///< per-forward multiply-adds
  virtual std::string name() const = 0;
  /// Expose parameter/optimizer buffers for snapshot/restore.
  virtual void collect_state(std::vector<std::vector<float>*>& out) {
    (void)out;
  }
};

/// 3x3 (or kxk) same-padded convolution, optional stride.
class Conv2D final : public Layer {
 public:
  Conv2D(int in_c, int out_c, int k, int stride, util::Xoshiro256& rng);

  Tensor forward(const Tensor& x, const Exec& ex) override;
  Tensor backward(const Tensor& dy) override;
  void step(float lr, float momentum, float batch_inv) override;
  std::size_t param_count() const override {
    return w_.size() + b_.size();
  }
  u64 macs() const override { return macs_; }
  std::string name() const override { return "conv"; }

  std::vector<float>& weights() { return w_; }
  void collect_state(std::vector<std::vector<float>*>& out) override {
    out.insert(out.end(), {&w_, &b_, &mw_, &mb_});
  }

 private:
  float wt(int oc, int ic, int ky, int kx) const {
    return w_[std::size_t(((oc * in_c_ + ic) * k_ + ky) * k_ + kx)];
  }
  int in_c_, out_c_, k_, stride_;
  std::vector<float> w_, b_, gw_, gb_, mw_, mb_;
  Tensor x_;       // stored input of the last forward (quantized view
                   // when running quantized: STE backward)
  ActRange in_range_;
  mutable u64 macs_ = 0;
};

/// Fully connected layer on a flattened input.
class Dense final : public Layer {
 public:
  Dense(int in, int out, util::Xoshiro256& rng);
  Tensor forward(const Tensor& x, const Exec& ex) override;
  Tensor backward(const Tensor& dy) override;
  void step(float lr, float momentum, float batch_inv) override;
  std::size_t param_count() const override { return w_.size() + b_.size(); }
  u64 macs() const override { return u64(in_) * u64(out_); }
  std::string name() const override { return "dense"; }
  void collect_state(std::vector<std::vector<float>*>& out) override {
    out.insert(out.end(), {&w_, &b_, &mw_, &mb_});
  }

 private:
  int in_, out_;
  std::vector<float> w_, b_, gw_, gb_, mw_, mb_;
  Tensor x_;
  ActRange in_range_;
};

class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& x, const Exec& ex) override;
  Tensor backward(const Tensor& dy) override;
  std::string name() const override { return "relu"; }

 private:
  Tensor y_;
};

class MaxPool2 final : public Layer {
 public:
  Tensor forward(const Tensor& x, const Exec& ex) override;
  Tensor backward(const Tensor& dy) override;
  std::string name() const override { return "maxpool2"; }

 private:
  Tensor x_;
  std::vector<int> argmax_;
};

/// Global average pool to a (c,1,1) tensor.
class GlobalAvgPool final : public Layer {
 public:
  Tensor forward(const Tensor& x, const Exec& ex) override;
  Tensor backward(const Tensor& dy) override;
  std::string name() const override { return "gap"; }

 private:
  int c_ = 0, h_ = 0, w_ = 0;
};

/// Pre-activation-free basic residual block: conv-relu-conv (+1x1
/// projection when shape changes), relu after the add.
class ResidualBlock final : public Layer {
 public:
  ResidualBlock(int in_c, int out_c, int stride, util::Xoshiro256& rng);
  Tensor forward(const Tensor& x, const Exec& ex) override;
  Tensor backward(const Tensor& dy) override;
  void step(float lr, float momentum, float batch_inv) override;
  std::size_t param_count() const override;
  u64 macs() const override;
  std::string name() const override { return "resblock"; }
  void collect_state(std::vector<std::vector<float>*>& out) override {
    conv1_.collect_state(out);
    conv2_.collect_state(out);
    if (proj_) proj_->collect_state(out);
  }

 private:
  Conv2D conv1_, conv2_;
  std::unique_ptr<Conv2D> proj_;
  ReLU relu1_;
  Tensor skip_, sum_;
};

}  // namespace nga::nn
