#include "kompics/system.hpp"

#include <stdexcept>
#include <utility>

namespace kmsg::kompics {

KompicsSystem::KompicsSystem(sim::Simulator& sim, SystemSettings settings)
    : settings_(settings),
      scheduler_(std::make_unique<SimulationScheduler>(sim)) {}

KompicsSystem::KompicsSystem(std::size_t worker_threads, SystemSettings settings)
    : settings_(settings) {
  auto pool = std::make_unique<ThreadPoolScheduler>(worker_threads);
  pool_ = pool.get();
  scheduler_ = std::move(pool);
}

KompicsSystem::~KompicsSystem() { shutdown(); }

void KompicsSystem::shutdown() { scheduler_->shutdown(); }

std::size_t KompicsSystem::worker_count() const {
  return pool_ != nullptr ? pool_->worker_count() : 1;
}

void KompicsSystem::place_core_(ComponentCore* core) {
  core->pool_ = pool_;
  if (pool_ != nullptr) {
    core->home_ = next_home_++ % static_cast<std::uint32_t>(
                                     pool_->worker_count());
  }
}

ComponentCore* KompicsSystem::uf_find_(ComponentCore* c) {
  while (c->uf_parent_ != c) {
    c->uf_parent_ = c->uf_parent_->uf_parent_;  // path halving
    c = c->uf_parent_;
  }
  return c;
}

void KompicsSystem::link_cores_(ComponentCore* a, ComponentCore* b) {
  if (pool_ == nullptr) return;  // simulation: single-threaded, no escalation
  ComponentCore* ra = uf_find_(a);
  ComponentCore* rb = uf_find_(b);
  if (ra == rb) return;
  if (ra->uf_members_.size() < rb->uf_members_.size()) std::swap(ra, rb);
  // For a non-escalated cluster every member has the root's home (children
  // inherit, pin_home re-homes whole clusters), so roots decide escalation.
  const bool escalate = ra->is_shared() || rb->is_shared() ||
                        ra->home_ != rb->home_;
  rb->uf_parent_ = ra;
  ra->uf_members_.insert(ra->uf_members_.end(), rb->uf_members_.begin(),
                         rb->uf_members_.end());
  rb->uf_members_.clear();
  rb->uf_members_.shrink_to_fit();
  if (escalate) {
    for (ComponentCore* m : ra->uf_members_) {
      m->shared_.store(true, std::memory_order_relaxed);
    }
  }
}

void KompicsSystem::pin_home(ComponentDefinition& def, std::uint32_t worker) {
  if (pool_ == nullptr) return;
  if (worker >= pool_->worker_count()) {
    throw std::out_of_range("pin_home: worker index out of range");
  }
  ComponentCore* root = uf_find_(def.core_);
  for (ComponentCore* m : root->uf_members_) m->home_ = worker;
}

Channel& KompicsSystem::connect(PortInstance& provided, PortInstance& required,
                                ChannelSelector indication_selector) {
  if (!provided.provided() || required.provided()) {
    throw std::logic_error(
        "connect: expected (provided, required) port pair for type " +
        provided.type().name());
  }
  if (&provided.type() != &required.type()) {
    throw std::logic_error("connect: port type mismatch (" +
                           provided.type().name() + " vs " +
                           required.type().name() + ")");
  }
  // Escalate *before* the channel exists: once events can flow across the
  // new edge, both clusters must already be on matching (or atomic) paths.
  link_cores_(provided.owner(), required.owner());
  auto channel = std::make_unique<Channel>(&provided, &required);
  if (indication_selector) channel->set_indication_selector(std::move(indication_selector));
  channels_.push_back(std::move(channel));
  return *channels_.back();
}

void KompicsSystem::disconnect(Channel& channel) { channel.disconnect(); }

void KompicsSystem::start(ComponentDefinition& def) {
  auto* core = def.core_;
  core->enqueue(&core->control_port(), make_event<Start>());
}

void KompicsSystem::stop(ComponentDefinition& def) {
  auto* core = def.core_;
  core->enqueue(&core->control_port(), make_event<Stop>());
}

void KompicsSystem::kill(ComponentDefinition& def) {
  auto* core = def.core_;
  core->enqueue(&core->control_port(), make_event<Kill>());
}

void KompicsSystem::supervise(ComponentDefinition& def,
                              SupervisorPolicy policy) {
  def.core_->set_supervisor_policy(policy);
}

void KompicsSystem::start_all() {
  // Only roots are started directly; children start through their parent's
  // lifecycle cascade (starting a subtree's root starts the subtree).
  for (auto& core : cores_) {
    if (!core->has_parent()) {
      core->enqueue(&core->control_port(), make_event<Start>());
    }
  }
}

}  // namespace kmsg::kompics
