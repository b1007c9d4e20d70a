// Timing decorators over the engine's public plug-in interfaces. The
// traced corec_s3d pass hands a TimedScheme to the StagingService
// constructor and a TimedMetadata to attach_metadata(), so every
// scheme and directory call shows up as a span without touching the
// engine's sources. Both forward every call unchanged.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "staging/metadata.hpp"
#include "staging/scheme.hpp"
#include "trace.hpp"

namespace perfbench {

class TimedScheme final : public corec::staging::ResilienceScheme {
 public:
  explicit TimedScheme(std::unique_ptr<corec::staging::ResilienceScheme> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  void bind(corec::staging::StagingService* service) override {
    ResilienceScheme::bind(service);
    inner_->bind(service);
  }

  corec::SimTime protect(const corec::staging::DataObject& obj,
                         corec::ServerId primary,
                         const corec::staging::ObjectDescriptor* previous,
                         corec::SimTime arrived,
                         corec::staging::Breakdown* bd) override {
    trace::Scope s(ids().protect);
    return inner_->protect(obj, primary, previous, arrived, bd);
  }

  void on_access(const corec::staging::ObjectDescriptor& desc,
                 corec::SimTime now) override {
    trace::Scope s(ids().on_access);
    inner_->on_access(desc, now);
  }

  void on_server_failed(corec::ServerId server, corec::SimTime now) override {
    trace::Scope s(ids().on_server_failed);
    inner_->on_server_failed(server, now);
  }

  void on_server_replaced(corec::ServerId server,
                          corec::SimTime now) override {
    trace::Scope s(ids().on_server_replaced);
    inner_->on_server_replaced(server, now);
  }

  void end_of_step(corec::Version step, corec::SimTime now) override {
    trace::Scope s(ids().end_of_step);
    inner_->end_of_step(step, now);
  }

  std::size_t repair_backlog() const override {
    return inner_->repair_backlog();
  }

 private:
  struct Ids {
    std::uint32_t protect = trace::intern("core.protect");
    std::uint32_t on_access = trace::intern("core.on_access");
    std::uint32_t on_server_failed = trace::intern("core.on_server_failed");
    std::uint32_t on_server_replaced =
        trace::intern("core.on_server_replaced");
    std::uint32_t end_of_step = trace::intern("core.end_of_step");
  };
  static const Ids& ids() {
    static const Ids kIds;
    return kIds;
  }

  std::unique_ptr<corec::staging::ResilienceScheme> inner_;
};

class TimedMetadata final : public corec::staging::MetadataPlane {
 public:
  corec::SimTime upsert(const corec::staging::ObjectDescriptor& desc,
                        corec::staging::ObjectLocation location) override {
    trace::Scope s(ids().upsert);
    return inner_.upsert(desc, std::move(location));
  }

  bool remove(const corec::staging::ObjectDescriptor& desc) override {
    trace::Scope s(ids().remove);
    return inner_.remove(desc);
  }

  const corec::staging::ObjectLocation* find(
      const corec::staging::ObjectDescriptor& desc) const override {
    trace::Scope s(ids().find);
    return inner_.find(desc);
  }

  std::vector<corec::staging::ObjectDescriptor> query(
      corec::VarId var, corec::Version version,
      const corec::geom::BoundingBox& region) const override {
    trace::Scope s(ids().query);
    return inner_.query(var, version, region);
  }

  std::vector<corec::staging::ObjectDescriptor> query_latest(
      corec::VarId var, corec::Version version,
      const corec::geom::BoundingBox& region) const override {
    trace::Scope s(ids().query_latest);
    return inner_.query_latest(var, version, region);
  }

  const corec::staging::ObjectDescriptor* find_entity(
      corec::VarId var, const corec::geom::BoundingBox& box) const override {
    trace::Scope s(ids().find_entity);
    return inner_.find_entity(var, box);
  }

  std::size_t size() const override { return inner_.size(); }

  void for_each(const VisitFn& fn) const override { inner_.for_each(fn); }

  const corec::staging::Directory& state() const override {
    return inner_.state();
  }

  void on_server_failed(corec::ServerId server, corec::SimTime now) override {
    inner_.on_server_failed(server, now);
  }

  void on_server_replaced(corec::ServerId server,
                          corec::SimTime now) override {
    inner_.on_server_replaced(server, now);
  }

  bool available() const override { return inner_.available(); }

  corec::SimTime replicate_map(const corec::Bytes& blob,
                               std::uint64_t version,
                               corec::SimTime now) override {
    return inner_.replicate_map(blob, version, now);
  }

  std::uint64_t map_version() const override { return inner_.map_version(); }

 private:
  struct Ids {
    std::uint32_t upsert = trace::intern("directory.upsert");
    std::uint32_t remove = trace::intern("directory.remove");
    std::uint32_t find = trace::intern("directory.find");
    std::uint32_t query = trace::intern("directory.query");
    std::uint32_t query_latest = trace::intern("directory.query_latest");
    std::uint32_t find_entity = trace::intern("directory.find_entity");
  };
  static const Ids& ids() {
    static const Ids kIds;
    return kIds;
  }

  corec::staging::LocalMetadata inner_;
};

}  // namespace perfbench
