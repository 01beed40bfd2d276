#include "provenance/annotation.h"

namespace prox {

DomainId AnnotationRegistry::AddDomain(const std::string& name) {
  // An overlay shares its base's domains; naming a new one through it is
  // a programming error (Result::value() asserts, or throws).
  if (base_ != nullptr) return base_->FindDomain(name).value();
  auto it = domain_by_name_.find(name);
  if (it != domain_by_name_.end()) return it->second;
  DomainId id = static_cast<DomainId>(domain_names_.size());
  domain_names_.push_back(name);
  domain_by_name_.emplace(name, id);
  return id;
}

Result<DomainId> AnnotationRegistry::FindDomain(const std::string& name) const {
  if (base_ != nullptr) return base_->FindDomain(name);
  auto it = domain_by_name_.find(name);
  if (it == domain_by_name_.end()) {
    return Status::NotFound("unknown domain: " + name);
  }
  return it->second;
}

Result<AnnotationId> AnnotationRegistry::Add(DomainId domain,
                                             const std::string& name,
                                             uint32_t entity_row) {
  if (base_ != nullptr) {
    return Status::FailedPrecondition(
        "an overlay registry registers summary annotations only");
  }
  if (domain >= domain_names_.size()) {
    return Status::InvalidArgument("domain id out of range");
  }
  if (by_name_.count(name) > 0) {
    return Status::AlreadyExists("annotation already registered: " + name);
  }
  AnnotationId id = static_cast<AnnotationId>(entries_.size());
  entries_.push_back(Entry{name, domain, entity_row, /*is_summary=*/false});
  by_name_.emplace(name, id);
  return id;
}

AnnotationId AnnotationRegistry::AddSummary(DomainId domain,
                                            const std::string& name) {
  AnnotationId id = static_cast<AnnotationId>(size());
  entries_.push_back(Entry{name, domain, kNoEntity, /*is_summary=*/true});
  by_name_.emplace(name, id);  // keeps the first id registered under `name`
  return id;
}

Result<AnnotationId> AnnotationRegistry::Find(const std::string& name) const {
  if (base_ != nullptr) {
    // Base ids past base_size_ were appended after this overlay was built;
    // their values belong to the overlay's tail here.
    Result<AnnotationId> in_base = base_->Find(name);
    if (in_base.ok() && in_base.value() < base_size_) return in_base;
  }
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("unknown annotation: " + name);
  }
  return it->second;
}

std::vector<AnnotationId> AnnotationRegistry::AnnotationsInDomain(
    DomainId domain) const {
  std::vector<AnnotationId> out;
  for (AnnotationId a = 0; a < size(); ++a) {
    if (this->domain(a) == domain) out.push_back(a);
  }
  return out;
}

}  // namespace prox
