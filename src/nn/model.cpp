#include "nn/model.hpp"

#include <algorithm>
#include <stdexcept>
#include <cmath>
#include <numeric>

#include "fault/fault.hpp"
#include "nn/health.hpp"
#include "nn/resilience.hpp"
#include "prof/attribution.hpp"

namespace nga::nn {

namespace {

// Cooperative cancellation (nga::guard): polled between layers and
// samples. Acquire pairs with the watchdog's release store.
bool cancelled(const Exec& ex) {
  return ex.cancel && ex.cancel->load(std::memory_order_acquire);
}

void tick(const Exec& ex) {
  if (ex.heartbeat) ex.heartbeat->fetch_add(1, std::memory_order_relaxed);
}

// Attribute the layer that just ran to the profiler. The modelled
// traffic counts every input and output activation and every parameter
// as one float read or written once.
void end_prof_layer(const Exec& ex, const Layer& l, std::size_t in_elems,
                    std::size_t out_elems) {
  ex.prof->end_layer(
      l.name(), l.macs(),
      u64(in_elems + out_elems + l.param_count()) * sizeof(float));
}

}  // namespace

Tensor Model::forward(const Tensor& x, const Exec& ex) {
  if (ex.health) ex.health->begin_forward();
  if (ex.prof) ex.prof->begin_forward();
  if (!ex.guard) {
    Tensor t = x;
    for (auto& l : layers_) {
      if (cancelled(ex)) return t;  // partial — caller must discard
      if (ex.health) ex.health->begin_layer();
      const std::size_t in_elems = t.v.size();
      if (ex.prof) ex.prof->begin_layer();
      t = l->forward(t, ex);
      if (ex.prof) end_prof_layer(ex, *l, in_elems, t.v.size());
      tick(ex);
      if (ex.capture) ex.capture->push_back(t);
      if (ex.health) ex.health->end_layer(l->name());
    }
    return t;
  }
  // Guarded inference: bracket each layer with the guard's counter
  // snapshot; on a trip, swap in the exact fallback table and re-run
  // the poisoned layer. Degradation is sticky across samples — the
  // guard object carries it until reset().
  Exec cur = ex;
  if (cur.guard->degraded() && cur.guard->fallback() &&
      cur.mode == Mode::kQuantApprox)
    cur.mul = cur.guard->fallback();
  Tensor t = x;
  for (auto& l : layers_) {
    if (cancelled(cur)) return t;  // partial — caller must discard
    cur.guard->begin_layer();
    if (cur.health) cur.health->begin_layer();
    const std::size_t in_elems = t.v.size();
    if (cur.prof) cur.prof->begin_layer();
    Tensor y = l->forward(t, cur);
    if (cur.guard->layer_tripped()) {
      cur.guard->enter_degraded(l->name());
      if (cur.guard->fallback() && cur.mode == Mode::kQuantApprox) {
        cur.mul = cur.guard->fallback();
        y = l->forward(t, cur);  // redo the affected layer exactly
      }
    }
    // The guard's exact re-run counts into the same layer: the health
    // and prof channels see what the layer actually cost, recovery
    // included (nominal MACs count once; the redo shows up as extra
    // wall time and LUT probes — the degradation is visible, not
    // hidden).
    if (cur.prof) end_prof_layer(cur, *l, in_elems, y.v.size());
    tick(cur);
    if (cur.capture) cur.capture->push_back(y);
    if (cur.health) cur.health->end_layer(l->name());
    t = std::move(y);
  }
  return t;
}

std::vector<Tensor> Model::forward_batch(const std::vector<const Tensor*>& xs,
                                         const Exec& ex) {
  std::vector<Tensor> out;
  out.reserve(xs.size());
  for (const Tensor* x : xs) {
    // A cancelled batch stops producing: the serving layer discards
    // whatever was computed and re-queues the live requests.
    if (cancelled(ex)) break;
    // Exec-level timing site: a hang/latency plan here stalls whole
    // samples (a wedged core rather than a wedged multiplier).
    if (x) NGA_FAULT_DELAY(fault::Site::kNnExec);
    out.push_back(x ? forward(*x, ex) : Tensor{});
  }
  return out;
}

void Model::backward(const Tensor& dlogits) {
  Tensor g = dlogits;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
}

void Model::step(float lr, float momentum, float batch_inv) {
  for (auto& l : layers_) l->step(lr, momentum, batch_inv);
}

std::vector<std::string> Model::layer_names() const {
  std::vector<std::string> out;
  out.reserve(layers_.size());
  for (const auto& l : layers_) out.push_back(l->name());
  return out;
}

std::size_t Model::param_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l->param_count();
  return n;
}

std::vector<std::vector<float>> Model::snapshot() {
  std::vector<std::vector<float>*> ptrs;
  for (const auto& l : layers_) l->collect_state(ptrs);
  std::vector<std::vector<float>> out;
  out.reserve(ptrs.size());
  for (auto* p : ptrs) out.push_back(*p);
  return out;
}

void Model::restore(const std::vector<std::vector<float>>& state) {
  // Validate the whole snapshot before touching any weights, naming the
  // layer and buffer that mismatched — a corrupted snapshot must not
  // leave the model half-restored or silently resize a weight tensor.
  std::vector<std::vector<float>*> ptrs;
  std::vector<std::string> owner;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    std::vector<std::vector<float>*> lp;
    layers_[li]->collect_state(lp);
    for (std::size_t bi = 0; bi < lp.size(); ++bi) {
      ptrs.push_back(lp[bi]);
      owner.push_back("layer " + std::to_string(li) + " (" +
                      layers_[li]->name() + ") buffer " +
                      std::to_string(bi));
    }
  }
  if (ptrs.size() != state.size())
    throw std::invalid_argument(
        "snapshot/model mismatch: model '" + name_ + "' expects " +
        std::to_string(ptrs.size()) + " state buffers, snapshot has " +
        std::to_string(state.size()));
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    if (state[i].size() != ptrs[i]->size())
      throw std::invalid_argument(
          "snapshot/model mismatch at " + owner[i] + " of model '" + name_ +
          "': expected " + std::to_string(ptrs[i]->size()) +
          " floats, snapshot has " + std::to_string(state[i].size()));
  }
  for (std::size_t i = 0; i < ptrs.size(); ++i) *ptrs[i] = state[i];
}

util::u64 Model::macs() const {
  util::u64 n = 0;
  for (const auto& l : layers_) n += l->macs();
  return n;
}

float softmax_xent(const Tensor& logits, int label, Tensor* dlogits) {
  const int n = int(logits.v.size());
  float mx = logits.v[0];
  for (float v : logits.v) mx = std::max(mx, v);
  float denom = 0.f;
  std::vector<float> e(static_cast<std::size_t>(n), 0.f);
  for (int i = 0; i < n; ++i) {
    e[std::size_t(i)] = std::exp(logits.v[std::size_t(i)] - mx);
    denom += e[std::size_t(i)];
  }
  const float p_label = e[std::size_t(label)] / denom;
  if (dlogits) {
    *dlogits = logits;
    for (int i = 0; i < n; ++i) {
      const float p = e[std::size_t(i)] / denom;
      dlogits->v[std::size_t(i)] = p - (i == label ? 1.f : 0.f);
    }
  }
  return -std::log(std::max(p_label, 1e-12f));
}

void train(Model& model, const Dataset& data, const TrainConfig& cfg) {
  util::Xoshiro256 rng(cfg.seed);
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  Exec ex;
  ex.mode = cfg.mode;
  ex.mul = cfg.mul;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const bool late = cfg.lr_late > 0.f && epoch >= (cfg.epochs * 3) / 5;
    const float lr = late ? cfg.lr_late : cfg.lr;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    int in_batch = 0;
    for (const std::size_t idx : order) {
      const Sample& s = data[idx];
      Tensor x = s.x;
      if (cfg.augment && cfg.augment_fn) cfg.augment_fn(x, rng);
      const Tensor logits = model.forward(x, ex);
      Tensor dlogits;
      softmax_xent(logits, s.label, &dlogits);
      model.backward(dlogits);
      if (++in_batch == cfg.batch) {
        model.step(lr, cfg.momentum, 1.f / float(in_batch));
        in_batch = 0;
      }
    }
    if (in_batch) model.step(lr, cfg.momentum, 1.f / float(in_batch));
  }
}

void calibrate(Model& model, const Dataset& data, int max_samples) {
  Exec ex;
  ex.mode = Mode::kFloat;
  ex.calibrate = true;
  const int n = std::min<int>(max_samples, int(data.size()));
  for (int i = 0; i < n; ++i) model.forward(data[std::size_t(i)].x, ex);
}

EvalResult evaluate(Model& model, const Dataset& data, Mode mode,
                    const MulTable* mul, ResilienceGuard* guard) {
  Exec ex;
  ex.mode = mode;
  ex.mul = mul;
  ex.guard = guard;
  EvalResult r;
  for (const auto& s : data) {
    const Tensor logits = model.forward(s.x, ex);
    r.loss += softmax_xent(logits, s.label, nullptr);
    const auto it = std::max_element(logits.v.begin(), logits.v.end());
    if (int(it - logits.v.begin()) == s.label) r.accuracy += 1.0;
  }
  r.accuracy /= double(data.size());
  r.loss /= double(data.size());
  return r;
}

Model make_resnet_mini(int in_hw, util::u64 seed) {
  util::Xoshiro256 rng(seed);
  (void)in_hw;
  Model m("ResNet20-mini");
  m.add(std::make_unique<Conv2D>(3, 8, 3, 1, rng));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<ResidualBlock>(8, 8, 1, rng));
  m.add(std::make_unique<ResidualBlock>(8, 12, 2, rng));
  m.add(std::make_unique<ResidualBlock>(12, 16, 2, rng));
  m.add(std::make_unique<GlobalAvgPool>());
  m.add(std::make_unique<Dense>(16, 10, rng));
  return m;
}

Model make_kws_cnn1(int t, int mel, util::u64 seed) {
  util::Xoshiro256 rng(seed);
  Model m("KWS-CNN1");
  m.add(std::make_unique<Conv2D>(1, 8, 3, 1, rng));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2>());
  m.add(std::make_unique<Conv2D>(8, 16, 3, 1, rng));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<GlobalAvgPool>());
  m.add(std::make_unique<Dense>(16, 10, rng));
  (void)t;
  (void)mel;
  return m;
}

Model make_kws_cnn2(int t, int mel, util::u64 seed) {
  util::Xoshiro256 rng(seed);
  Model m("KWS-CNN2");
  m.add(std::make_unique<Conv2D>(1, 8, 3, 1, rng));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2>());
  m.add(std::make_unique<Conv2D>(8, 16, 3, 1, rng));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Conv2D>(16, 16, 3, 1, rng));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<GlobalAvgPool>());
  m.add(std::make_unique<Dense>(16, 10, rng));
  (void)t;
  (void)mel;
  return m;
}

}  // namespace nga::nn
