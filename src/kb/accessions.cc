#include "kb/accessions.h"

#include <cctype>

#include "common/strings.h"

namespace dexa {

namespace {

/// `letter` followed by `i` mod 100000 zero-padded to five digits — the
/// shape of UniProt, KEGG glycan/ligand/compound and disease ids. Appends
/// into a fresh string rather than prepending to a temporary.
std::string LetterAndFiveDigits(char letter, uint64_t i) {
  std::string id(1, letter);
  id += ZeroPad(i % 100000, 5);
  return id;
}

bool AllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool AllUpper(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isupper(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool AllLower(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::islower(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

std::string MakeUniprotAccession(uint64_t i) {
  static constexpr char kLetters[] = {'P', 'Q', 'O'};
  return LetterAndFiveDigits(kLetters[i % 3], i);
}

bool IsUniprotAccession(std::string_view s) {
  return s.size() == 6 && (s[0] == 'P' || s[0] == 'Q' || s[0] == 'O') &&
         AllDigits(s.substr(1));
}

std::string MakePdbAccession(uint64_t i) {
  std::string out;
  out.push_back(static_cast<char>('1' + (i / (26 * 26 * 26)) % 9));
  uint64_t rest = i % (26 * 26 * 26);
  out.push_back(static_cast<char>('A' + rest / (26 * 26)));
  out.push_back(static_cast<char>('A' + (rest / 26) % 26));
  out.push_back(static_cast<char>('A' + rest % 26));
  return out;
}

bool IsPdbAccession(std::string_view s) {
  return s.size() == 4 && s[0] >= '1' && s[0] <= '9' && AllUpper(s.substr(1));
}

std::string MakeEmblAccession(uint64_t i) {
  std::string out;
  out.push_back(static_cast<char>('A' + (i / 26) % 26));
  out.push_back(static_cast<char>('A' + i % 26));
  return out + ZeroPad(i % 1000000, 6);
}

bool IsEmblAccession(std::string_view s) {
  return s.size() == 8 && AllUpper(s.substr(0, 2)) && AllDigits(s.substr(2));
}

std::string MakeKeggGeneId(uint64_t i, std::string_view organism_code) {
  return std::string(organism_code) + ":" + std::to_string(10000 + i);
}

bool IsKeggGeneId(std::string_view s) {
  size_t colon = s.find(':');
  if (colon != 3) return false;
  return AllLower(s.substr(0, 3)) && AllDigits(s.substr(4));
}

std::string MakeEnzymeId(uint64_t i) {
  return std::to_string(1 + i % 6) + "." + std::to_string(1 + (i / 6) % 10) +
         "." + std::to_string(1 + (i / 60) % 10) + "." + std::to_string(1 + i);
}

bool IsEnzymeId(std::string_view s) {
  std::vector<std::string> parts = Split(s, '.');
  if (parts.size() != 4) return false;
  for (const std::string& p : parts) {
    if (!AllDigits(p)) return false;
  }
  return true;
}

std::string MakeGlycanId(uint64_t i) {
  return LetterAndFiveDigits('G', i);
}

bool IsGlycanId(std::string_view s) {
  return s.size() == 6 && s[0] == 'G' && AllDigits(s.substr(1));
}

std::string MakeLigandId(uint64_t i) {
  return LetterAndFiveDigits('L', i);
}

bool IsLigandId(std::string_view s) {
  return s.size() == 6 && s[0] == 'L' && AllDigits(s.substr(1));
}

std::string MakeCompoundId(uint64_t i) {
  return LetterAndFiveDigits('C', i);
}

bool IsCompoundId(std::string_view s) {
  return s.size() == 6 && s[0] == 'C' && AllDigits(s.substr(1));
}

std::string MakePathwayId(uint64_t i, std::string_view organism_code) {
  return "path:" + std::string(organism_code) + ZeroPad(i % 100000, 5);
}

bool IsPathwayId(std::string_view s) {
  if (!StartsWith(s, "path:")) return false;
  std::string_view rest = s.substr(5);
  return rest.size() == 8 && AllLower(rest.substr(0, 3)) &&
         AllDigits(rest.substr(3));
}

std::string MakeGoTermId(uint64_t i) { return "GO:" + ZeroPad(i % 10000000, 7); }

bool IsGoTermId(std::string_view s) {
  return StartsWith(s, "GO:") && s.size() == 10 && AllDigits(s.substr(3));
}

std::string MakeInterProId(uint64_t i) {
  return "IPR" + ZeroPad(i % 1000000, 6);
}

bool IsInterProId(std::string_view s) {
  return StartsWith(s, "IPR") && s.size() == 9 && AllDigits(s.substr(3));
}

std::string MakePfamId(uint64_t i) { return "PF" + ZeroPad(i % 100000, 5); }

bool IsPfamId(std::string_view s) {
  return StartsWith(s, "PF") && s.size() == 7 && AllDigits(s.substr(2));
}

std::string MakeDiseaseId(uint64_t i) {
  return LetterAndFiveDigits('H', i);
}

bool IsDiseaseId(std::string_view s) {
  return s.size() == 6 && s[0] == 'H' && AllDigits(s.substr(1));
}

std::string ClassifyAccession(std::string_view s) {
  if (IsUniprotAccession(s)) return "UniprotAccession";
  if (IsPdbAccession(s)) return "PDBAccession";
  if (IsEmblAccession(s)) return "EMBLAccession";
  if (IsKeggGeneId(s)) return "KEGGGeneId";
  if (IsEnzymeId(s)) return "EnzymeId";
  if (IsGlycanId(s)) return "GlycanId";
  if (IsLigandId(s)) return "LigandId";
  if (IsCompoundId(s)) return "CompoundId";
  if (IsPathwayId(s)) return "PathwayId";
  if (IsGoTermId(s)) return "GOTermId";
  if (IsInterProId(s)) return "InterProId";
  if (IsPfamId(s)) return "PfamId";
  if (IsDiseaseId(s)) return "DiseaseId";
  return "";
}

}  // namespace dexa
