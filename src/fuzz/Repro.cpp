//===- fuzz/Repro.cpp - Self-contained failure reproductions --------------===//

#include "fuzz/Repro.h"

#include "ir/Parser.h"

#include <sstream>

using namespace dra;

namespace {

bool fail(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

/// Splits "a,b,c" into numbers; empty string yields an empty list.
bool parseRegList(const std::string &S, std::vector<RegId> &Out) {
  Out.clear();
  if (S.empty() || S == "none")
    return true;
  std::stringstream In(S);
  std::string Item;
  while (std::getline(In, Item, ',')) {
    try {
      Out.push_back(static_cast<RegId>(std::stoul(Item)));
    } catch (...) {
      return false;
    }
  }
  return true;
}

/// Parses "key=value" tokens of the `# enc:` directive into \p C.
bool parseEncToken(const std::string &Tok, EncodingConfig &C) {
  size_t Eq = Tok.find('=');
  if (Eq == std::string::npos)
    return false;
  std::string Key = Tok.substr(0, Eq);
  std::string Val = Tok.substr(Eq + 1);
  try {
    if (Key == "regn")
      C.RegN = static_cast<unsigned>(std::stoul(Val));
    else if (Key == "diffn")
      C.DiffN = static_cast<unsigned>(std::stoul(Val));
    else if (Key == "diffw")
      C.DiffW = static_cast<unsigned>(std::stoul(Val));
    else if (Key == "order") {
      if (Val == "src")
        C.Order = AccessOrder::SrcFirst;
      else if (Val == "dst")
        C.Order = AccessOrder::DstFirst;
      else
        return false;
    } else if (Key == "specials")
      return parseRegList(Val, C.SpecialRegs);
    else
      return true; // Unknown key: ignore for forward compatibility.
  } catch (...) {
    return false;
  }
  return true;
}

} // namespace

std::string dra::writeRepro(const FuzzCase &FC, const Function &P) {
  std::ostringstream Out;
  Out << "# dra-fuzz repro v1\n";
  Out << "# case: " << FC.name() << "\n";
  Out << "# seed: " << FC.Seed << "\n";
  Out << "# index: " << FC.Index << "\n";
  Out << "# scheme: " << wireSchemeName(FC.S) << "\n";
  Out << "# enc: regn=" << FC.Enc.RegN << " diffn=" << FC.Enc.DiffN
      << " diffw=" << FC.Enc.DiffW << " order="
      << (FC.Enc.Order == AccessOrder::SrcFirst ? "src" : "dst");
  Out << " specials=";
  if (FC.Enc.SpecialRegs.empty())
    Out << "none";
  else
    for (size_t I = 0; I != FC.Enc.SpecialRegs.size(); ++I)
      Out << (I ? "," : "") << unsigned(FC.Enc.SpecialRegs[I]);
  Out << "\n";
  Out << "# steplimit: " << FC.StepLimit << "\n";
  Out << "# cachereplay: " << (FC.CacheReplay ? 1 : 0) << "\n";
  Out << "# fault: " << injectFaultName(FC.Fault) << "\n";
  if (FC.Portfolio)
    Out << "# portfolio: race jobs=" << FC.PortfolioJobs << "\n";
  if (FC.CSrc) {
    // The csrc variant's ground truth is the mini-C source: replay
    // recompiles it through the frontend. One directive per source line
    // keeps the file a flat `#`-header + IR-body document; the IR body
    // below is the lowered form, kept for human inspection and for
    // readers that predate this directive.
    std::istringstream Src(FC.CSource);
    std::string SrcLine;
    while (std::getline(Src, SrcLine))
      Out << "# csrc: " << SrcLine << "\n";
  }
  Out << printFunction(P);
  return Out.str();
}

bool dra::loadRepro(const std::string &Text, FuzzCase &FC, Function &P,
                    std::string *Err) {
  FC = FuzzCase();
  std::istringstream In(Text);
  std::string Line;
  std::string Body;
  bool SawMagic = false;
  bool InBody = false;
  while (std::getline(In, Line)) {
    if (InBody || Line.empty() || Line[0] != '#') {
      // First non-directive line starts the IR body.
      InBody = InBody || !Line.empty();
      if (InBody)
        Body += Line + "\n";
      continue;
    }
    std::istringstream LS(Line);
    std::string Hash, Key;
    LS >> Hash >> Key;
    if (Key == "dra-fuzz") {
      SawMagic = true;
    } else if (Key == "seed:") {
      LS >> FC.Seed;
    } else if (Key == "index:") {
      LS >> FC.Index;
    } else if (Key == "steplimit:") {
      LS >> FC.StepLimit;
    } else if (Key == "cachereplay:") {
      unsigned V = 0;
      LS >> V;
      if (V > 1)
        return fail(Err, "repro: cachereplay must be 0 or 1");
      FC.CacheReplay = V != 0;
    } else if (Key == "scheme:") {
      std::string Name;
      LS >> Name;
      if (!parseSchemeName(Name, FC.S))
        return fail(Err, "repro: unknown scheme '" + Name + "'");
    } else if (Key == "fault:") {
      std::string Name;
      LS >> Name;
      if (!parseInjectFault(Name, FC.Fault))
        return fail(Err, "repro: unknown fault '" + Name + "'");
    } else if (Key == "enc:") {
      std::string Tok;
      while (LS >> Tok)
        if (!parseEncToken(Tok, FC.Enc))
          return fail(Err, "repro: bad enc token '" + Tok + "'");
    } else if (Key == "portfolio:") {
      // `# portfolio: race jobs=2` — the mode token is mandatory and
      // checked; the key=value tail follows the enc: conventions
      // (unknown keys ignored, malformed tokens rejected).
      std::string Mode;
      LS >> Mode;
      if (Mode != "race" && Mode != "choose")
        return fail(Err, "repro: unknown portfolio mode '" + Mode + "'");
      FC.Portfolio = true;
      std::string Tok;
      while (LS >> Tok) {
        size_t Eq = Tok.find('=');
        if (Eq == std::string::npos)
          return fail(Err, "repro: bad portfolio token '" + Tok + "'");
        std::string K = Tok.substr(0, Eq);
        std::string V = Tok.substr(Eq + 1);
        if (K == "jobs") {
          size_t Pos = 0;
          unsigned long N = 0;
          try {
            N = std::stoul(V, &Pos);
          } catch (...) {
            return fail(Err, "repro: bad portfolio token '" + Tok + "'");
          }
          if (Pos != V.size() || N == 0)
            return fail(Err,
                        "repro: portfolio jobs must be a positive count");
          FC.PortfolioJobs = static_cast<unsigned>(N);
        }
        // Unknown key=value: ignore for forward compatibility.
      }
    } else if (Key == "csrc:") {
      // Everything after the "# csrc: " prefix is one verbatim source
      // line (substr, not LS: token reads would eat the indentation).
      FC.CSrc = true;
      FC.CSource += Line.size() > 8 ? Line.substr(8) : "";
      FC.CSource += "\n";
    }
    // Any other directive (e.g. "# case:", or the "# remapjobs:" that
    // older harnesses wrote) is informational.
  }
  if (!SawMagic)
    return fail(Err, "repro: missing '# dra-fuzz repro' header");
  if (!FC.Enc.valid())
    return fail(Err, "repro: encoding config invalid (DiffN + specials "
                     "must fit in 2^DiffW)");
  std::string ParseErr;
  std::optional<Function> F = parseFunction(Body, &ParseErr);
  if (!F)
    return fail(Err, "repro: " + ParseErr);
  P = std::move(*F);
  return true;
}
