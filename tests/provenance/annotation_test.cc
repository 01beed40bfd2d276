#include "provenance/annotation.h"

#include <gtest/gtest.h>

namespace prox {
namespace {

TEST(AnnotationRegistryTest, AddDomainIsIdempotent) {
  AnnotationRegistry reg;
  DomainId a = reg.AddDomain("user");
  DomainId b = reg.AddDomain("movie");
  DomainId c = reg.AddDomain("user");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.num_domains(), 2u);
  EXPECT_EQ(reg.domain_name(a), "user");
}

TEST(AnnotationRegistryTest, FindDomain) {
  AnnotationRegistry reg;
  DomainId d = reg.AddDomain("page");
  auto found = reg.FindDomain("page");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), d);
  EXPECT_EQ(reg.FindDomain("nope").status().code(), StatusCode::kNotFound);
}

TEST(AnnotationRegistryTest, AddAndLookup) {
  AnnotationRegistry reg;
  DomainId d = reg.AddDomain("user");
  auto a = reg.Add(d, "U1", 17);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(reg.name(a.value()), "U1");
  EXPECT_EQ(reg.domain(a.value()), d);
  EXPECT_EQ(reg.entity_row(a.value()), 17u);
  EXPECT_FALSE(reg.is_summary(a.value()));
  auto found = reg.Find("U1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), a.value());
}

TEST(AnnotationRegistryTest, RejectsDuplicateNames) {
  AnnotationRegistry reg;
  DomainId d = reg.AddDomain("user");
  ASSERT_TRUE(reg.Add(d, "U1").ok());
  EXPECT_EQ(reg.Add(d, "U1").status().code(), StatusCode::kAlreadyExists);
}

TEST(AnnotationRegistryTest, RejectsUnknownDomain) {
  AnnotationRegistry reg;
  EXPECT_EQ(reg.Add(5, "X").status().code(), StatusCode::kInvalidArgument);
}

TEST(AnnotationRegistryTest, SummaryAnnotationsAreFlagged) {
  AnnotationRegistry reg;
  DomainId d = reg.AddDomain("user");
  AnnotationId s = reg.AddSummary(d, "Female");
  EXPECT_TRUE(reg.is_summary(s));
  EXPECT_EQ(reg.name(s), "Female");
  EXPECT_EQ(reg.entity_row(s), kNoEntity);
}

TEST(AnnotationRegistryTest, SummaryNameCollisionsKeepTheName) {
  // Summary names are stored verbatim (no "#k" suffix), so they depend
  // only on the run that mints them; Find keeps the first registration.
  AnnotationRegistry reg;
  DomainId d = reg.AddDomain("user");
  AnnotationId original = reg.Add(d, "Female").MoveValue();
  AnnotationId s1 = reg.AddSummary(d, "Female");
  AnnotationId s2 = reg.AddSummary(d, "Female");
  EXPECT_NE(s1, s2);
  EXPECT_EQ(reg.name(s1), "Female");
  EXPECT_EQ(reg.name(s2), "Female");
  EXPECT_EQ(reg.Find("Female").value(), original);
}

TEST(AnnotationRegistryTest, OverlayResolvesBaseIdsAndOwnsItsTail) {
  AnnotationRegistry base;
  DomainId users = base.AddDomain("user");
  AnnotationId u1 = base.Add(users, "U1", 4).MoveValue();
  AnnotationId u2 = base.Add(users, "U2").MoveValue();

  AnnotationRegistry overlay(&base);
  EXPECT_EQ(overlay.size(), 2u);
  AnnotationId s = overlay.AddSummary(users, "Group");
  EXPECT_EQ(s, 2u);
  EXPECT_EQ(overlay.size(), 3u);
  EXPECT_EQ(base.size(), 2u);  // the base never sees overlay registrations
  EXPECT_EQ(overlay.name(u1), "U1");
  EXPECT_EQ(overlay.entity_row(u1), 4u);
  EXPECT_FALSE(overlay.is_summary(u2));
  EXPECT_TRUE(overlay.is_summary(s));
  EXPECT_EQ(overlay.domain_name(overlay.domain(s)), "user");
  EXPECT_EQ(overlay.Find("U2").value(), u2);
  EXPECT_EQ(overlay.Find("Group").value(), s);
  EXPECT_FALSE(base.Find("Group").ok());
  EXPECT_EQ(overlay.AnnotationsInDomain(users),
            (std::vector<AnnotationId>{u1, u2, s}));
  EXPECT_EQ(overlay.Add(users, "U3").status().code(),
            StatusCode::kFailedPrecondition);

  // Two overlays over one base mint the same ids and names.
  AnnotationRegistry other(&base);
  EXPECT_EQ(other.AddSummary(users, "Group"), s);

  // An original the base gains later is invisible through the overlay:
  // its id value belongs to the overlay's tail there.
  AnnotationId u3 = base.Add(users, "U3").MoveValue();
  EXPECT_EQ(u3, s);
  EXPECT_EQ(overlay.name(u3), "Group");
  EXPECT_FALSE(overlay.Find("U3").ok());
}

TEST(AnnotationRegistryTest, AnnotationsInDomainFilters) {
  AnnotationRegistry reg;
  DomainId users = reg.AddDomain("user");
  DomainId movies = reg.AddDomain("movie");
  AnnotationId u1 = reg.Add(users, "U1").MoveValue();
  AnnotationId m1 = reg.Add(movies, "M1").MoveValue();
  AnnotationId u2 = reg.Add(users, "U2").MoveValue();
  EXPECT_EQ(reg.AnnotationsInDomain(users),
            (std::vector<AnnotationId>{u1, u2}));
  EXPECT_EQ(reg.AnnotationsInDomain(movies),
            (std::vector<AnnotationId>{m1}));
  EXPECT_EQ(reg.size(), 3u);
}

}  // namespace
}  // namespace prox
