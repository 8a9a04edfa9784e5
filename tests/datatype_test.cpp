#include "grok/datatype.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "regexlite/regex.h"

namespace loglens {
namespace {

TEST(DatatypeNames, RoundTrip) {
  for (Datatype t : {Datatype::kWord, Datatype::kNumber, Datatype::kIp,
                     Datatype::kNotSpace, Datatype::kDateTime,
                     Datatype::kAnyData}) {
    Datatype back;
    ASSERT_TRUE(datatype_from_name(datatype_name(t), back));
    EXPECT_EQ(back, t);
  }
  Datatype out;
  EXPECT_FALSE(datatype_from_name("BOGUS", out));
}

TEST(Coverage, PaperExamples) {
  // isCovered("WORD", "NOTSPACE") is true; the reverse is false.
  EXPECT_TRUE(is_covered(Datatype::kWord, Datatype::kNotSpace));
  EXPECT_FALSE(is_covered(Datatype::kNotSpace, Datatype::kWord));
}

TEST(Coverage, LatticeShape) {
  for (Datatype t : {Datatype::kWord, Datatype::kNumber, Datatype::kIp,
                     Datatype::kNotSpace, Datatype::kDateTime,
                     Datatype::kAnyData}) {
    EXPECT_TRUE(is_covered(t, t));            // reflexive
    EXPECT_TRUE(is_covered(t, Datatype::kAnyData));  // top element
  }
  EXPECT_TRUE(is_covered(Datatype::kNumber, Datatype::kNotSpace));
  EXPECT_TRUE(is_covered(Datatype::kIp, Datatype::kNotSpace));
  // DATETIME contains a space, so it is NOT under NOTSPACE.
  EXPECT_FALSE(is_covered(Datatype::kDateTime, Datatype::kNotSpace));
  EXPECT_FALSE(is_covered(Datatype::kAnyData, Datatype::kNotSpace));
  EXPECT_FALSE(is_covered(Datatype::kWord, Datatype::kNumber));
  EXPECT_FALSE(is_covered(Datatype::kWord, Datatype::kIp));
}

TEST(Coverage, TransitivityProperty) {
  const Datatype all[] = {Datatype::kWord,     Datatype::kNumber,
                          Datatype::kIp,       Datatype::kNotSpace,
                          Datatype::kDateTime, Datatype::kAnyData};
  for (Datatype a : all) {
    for (Datatype b : all) {
      for (Datatype c : all) {
        if (is_covered(a, b) && is_covered(b, c)) {
          EXPECT_TRUE(is_covered(a, c))
              << datatype_name(a) << " <= " << datatype_name(b)
              << " <= " << datatype_name(c);
        }
      }
    }
  }
}

TEST(Generality, OrderedByCoverage) {
  // If a is strictly covered by b, a must be strictly less general.
  const Datatype all[] = {Datatype::kWord,     Datatype::kNumber,
                          Datatype::kIp,       Datatype::kNotSpace,
                          Datatype::kDateTime, Datatype::kAnyData};
  for (Datatype a : all) {
    for (Datatype b : all) {
      if (a != b && is_covered(a, b)) {
        EXPECT_LT(generality(a), generality(b));
      }
    }
  }
}

TEST(Classifier, TableOneRules) {
  DatatypeClassifier c;
  EXPECT_EQ(c.classify("Connect"), Datatype::kWord);
  EXPECT_EQ(c.classify("abc"), Datatype::kWord);
  EXPECT_EQ(c.classify("42"), Datatype::kNumber);
  EXPECT_EQ(c.classify("-3.5"), Datatype::kNumber);
  EXPECT_EQ(c.classify("127.0.0.1"), Datatype::kIp);
  EXPECT_EQ(c.classify("user1"), Datatype::kNotSpace);
  EXPECT_EQ(c.classify("abc123"), Datatype::kNotSpace);
  EXPECT_EQ(c.classify("a-b"), Datatype::kNotSpace);
}

TEST(Classifier, MostSpecificWins) {
  DatatypeClassifier c;
  // "123" is both NUMBER and NOTSPACE; NUMBER is more specific.
  EXPECT_EQ(c.classify("123"), Datatype::kNumber);
  // An IP is also NOTSPACE but not NUMBER or WORD.
  EXPECT_EQ(c.classify("10.0.0.1"), Datatype::kIp);
}

TEST(Classifier, MatchesRespectsCoverage) {
  DatatypeClassifier c;
  EXPECT_TRUE(c.matches("hello", Datatype::kWord));
  EXPECT_TRUE(c.matches("hello", Datatype::kNotSpace));
  EXPECT_TRUE(c.matches("hello", Datatype::kAnyData));
  EXPECT_FALSE(c.matches("hello", Datatype::kNumber));
  EXPECT_FALSE(c.matches("two words", Datatype::kNotSpace));
  EXPECT_TRUE(c.matches("2016/02/23 09:00:31.000", Datatype::kDateTime));
  EXPECT_FALSE(c.matches("hello", Datatype::kDateTime));
}

// The classifier's hand-written scanners against the Table I regexes they
// stand for, run on the regex VM as the executable spec: classify() must
// pick the most specific regex that matches (else NOTSPACE), and matches()
// must agree with each regex on every token.
TEST(Classifier, ScannersAgreeWithTableOneRegexes) {
  const Regex word = Regex::compile_or_die("[a-zA-Z]+");
  const Regex number = Regex::compile_or_die("-?[0-9]+(\\.[0-9]+)?");
  const Regex ip = Regex::compile_or_die(
      "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}");
  const DatatypeClassifier c;
  size_t seen[kDatatypeCount] = {};
  auto check = [&](const std::string& t) {
    const bool w = word.full_match(t);
    const bool n = number.full_match(t);
    const bool i = ip.full_match(t);
    const Datatype want = w   ? Datatype::kWord
                          : n ? Datatype::kNumber
                          : i ? Datatype::kIp
                              : Datatype::kNotSpace;
    ++seen[static_cast<int>(want)];
    ASSERT_EQ(c.classify(t), want) << "token '" << t << "'";
    ASSERT_EQ(c.matches(t, Datatype::kWord), w) << "token '" << t << "'";
    ASSERT_EQ(c.matches(t, Datatype::kNumber), n) << "token '" << t << "'";
    ASSERT_EQ(c.matches(t, Datatype::kIp), i) << "token '" << t << "'";
  };

  for (const char* t :
       {"", "-", ".", "--1", "1.", ".5", "-.5", "-0", "-1.5", "1.5.", "1..2",
        "007", "1.2.3", "1.2.3.4", "1.2.3.4.", "1.2.3.4.5", "1234.1.1.1",
        "1.1.1.1234", "256.1.1.1", "999.999.999.999", "-1.2.3.4", "a", "Z",
        "aZ", "a1", "1a", "a-b", "a.b", "_", "\xc3\xa9"}) {
    check(t);
    if (HasFatalFailure()) return;
  }

  // Seeded random tokens. Most draw each byte from one of a few alphabets;
  // every fourth is dotted groups of 0-4 digits, so tokens near the IP and
  // NUMBER boundaries are common.
  const std::vector<std::string> alphabets = {
      "abcxyzABCXYZ", "0123456789", "0123456789.", "0123456789.-",
      "abzAZ09.-", "abzAZ09.-_:/@\x7f\x80"};
  Rng rng(20180702);
  for (int k = 0; k < 120000; ++k) {
    std::string t;
    if (k % 4 == 0) {
      if (rng.chance(0.1)) t.push_back('-');
      const size_t groups = 1 + rng.below(5);
      for (size_t g = 0; g < groups; ++g) {
        if (g > 0) t.push_back('.');
        const size_t digits = rng.below(5);
        for (size_t j = 0; j < digits; ++j) {
          t.push_back(static_cast<char>('0' + rng.below(10)));
        }
      }
    } else {
      const std::string& alphabet = rng.pick(alphabets);
      const size_t len = rng.below(17);
      for (size_t j = 0; j < len; ++j) {
        t.push_back(alphabet[rng.below(alphabet.size())]);
      }
    }
    check(t);
    if (HasFatalFailure()) return;
  }
  // Every outcome is well represented, so the agreement is not vacuous.
  for (Datatype t : {Datatype::kWord, Datatype::kNumber, Datatype::kIp,
                     Datatype::kNotSpace}) {
    EXPECT_GT(seen[static_cast<int>(t)], 500u) << datatype_name(t);
  }
}

}  // namespace
}  // namespace loglens
