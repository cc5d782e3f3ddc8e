//===- mir/Instruction.cpp - Machine instruction --------------------------===//

#include "mir/Instruction.h"

#include <cstdio>
#include <cstdlib>

using namespace schedfilter;

void Instruction::tooManyOperands(Opcode Op, size_t N) {
  std::fprintf(stderr,
               "Instruction %s: %zu register operands, at most %zu fit\n",
               getOpcodeName(Op), N, MaxOperands);
  std::abort();
}

std::string Instruction::toString() const {
  std::string S = getOpcodeName(Op);
  RegRange Defs = defs(), Uses = uses();
  if (!Defs.empty()) {
    S += ' ';
    for (size_t I = 0; I != Defs.size(); ++I)
      S += (I ? ", r" : "r") + std::to_string(Defs[I]);
    S += " =";
  }
  for (size_t I = 0; I != Uses.size(); ++I)
    S += (I ? ", r" : " r") + std::to_string(Uses[I]);
  uint16_t Cats = categories();
  std::string Tags;
  auto AddTag = [&](uint16_t Bit, const char *Tag) {
    if (Cats & Bit) {
      if (!Tags.empty())
        Tags += ',';
      Tags += Tag;
    }
  };
  AddTag(CatPEI, "pei");
  AddTag(CatGCPoint, "gc");
  AddTag(CatThreadSwitch, "ts");
  AddTag(CatYieldPoint, "yield");
  if (!Tags.empty())
    S += " [" + Tags + "]";
  return S;
}
