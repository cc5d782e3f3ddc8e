//===- mir/Opcode.cpp - Machine opcodes and category metadata ------------===//

#include "mir/Opcode.h"

#include <cstddef>

using namespace schedfilter;

namespace {

constexpr uint16_t IntCat = CatIntegerFU;
constexpr uint16_t FltCat = CatFloatFU;
constexpr uint16_t SysCat = CatSystemFU;

} // namespace

/// Indexed by Opcode.  Keep in sync with the enum; the order is asserted in
/// tests.
const OpcodeInfo schedfilter::OpcodeInfos[] = {
    // Name, Categories, Unit, ReadsMem, WritesMem, NumDefs, IsTerminator
    {"add", IntCat, FuClass::IntSimple, false, false, 1, false},
    {"sub", IntCat, FuClass::IntSimple, false, false, 1, false},
    {"and", IntCat, FuClass::IntSimple, false, false, 1, false},
    {"or", IntCat, FuClass::IntSimple, false, false, 1, false},
    {"xor", IntCat, FuClass::IntSimple, false, false, 1, false},
    {"shl", IntCat, FuClass::IntSimple, false, false, 1, false},
    {"shr", IntCat, FuClass::IntSimple, false, false, 1, false},
    {"cmp", IntCat, FuClass::IntSimple, false, false, 1, false},
    {"addi", IntCat, FuClass::IntSimple, false, false, 1, false},
    {"li", IntCat, FuClass::IntSimple, false, false, 1, false},
    {"mr", IntCat, FuClass::IntSimple, false, false, 1, false},
    {"mul", IntCat, FuClass::IntComplex, false, false, 1, false},
    {"div", IntCat | CatPEI, FuClass::IntComplex, false, false, 1, false},
    {"fadd", FltCat, FuClass::Float, false, false, 1, false},
    {"fsub", FltCat, FuClass::Float, false, false, 1, false},
    {"fmul", FltCat, FuClass::Float, false, false, 1, false},
    {"fdiv", FltCat, FuClass::Float, false, false, 1, false},
    {"fmadd", FltCat, FuClass::Float, false, false, 1, false},
    {"fcmp", FltCat, FuClass::Float, false, false, 1, false},
    {"fneg", FltCat, FuClass::Float, false, false, 1, false},
    {"fsqrt", FltCat, FuClass::Float, false, false, 1, false},
    {"fmr", FltCat, FuClass::Float, false, false, 1, false},
    {"lwz", CatLoad, FuClass::LoadStore, true, false, 1, false},
    {"lfd", CatLoad, FuClass::LoadStore, true, false, 1, false},
    {"lref", CatLoad, FuClass::LoadStore, true, false, 1, false},
    {"stw", CatStore, FuClass::LoadStore, false, true, 0, false},
    {"stfd", CatStore, FuClass::LoadStore, false, true, 0, false},
    {"stref", CatStore, FuClass::LoadStore, false, true, 0, false},
    {"b", CatBranch, FuClass::Branch, false, false, 0, true},
    {"bc", CatBranch, FuClass::Branch, false, false, 0, true},
    {"call", CatCall | CatPEI | CatGCPoint, FuClass::Branch, true, true, 1,
     false},
    {"callv", CatCall | CatPEI | CatGCPoint, FuClass::Branch, true, true, 1,
     false},
    {"ret", CatReturn, FuClass::Branch, false, false, 0, true},
    {"mfspr", SysCat, FuClass::System, false, false, 1, false},
    {"mtspr", SysCat, FuClass::System, false, false, 0, false},
    {"sync", SysCat, FuClass::System, true, true, 0, false},
    {"trap", SysCat | CatPEI, FuClass::System, false, false, 0, false},
    {"nullchk", IntCat | CatPEI, FuClass::IntSimple, false, false, 0, false},
    {"boundchk", IntCat | CatPEI, FuClass::IntSimple, false, false, 0, false},
    {"gcpoint", CatGCPoint, FuClass::System, false, false, 0, false},
    {"yield", CatYieldPoint, FuClass::System, false, false, 0, false},
    {"tswitch", CatThreadSwitch, FuClass::System, false, false, 0, false},
};

static_assert(sizeof(OpcodeInfos) / sizeof(OpcodeInfos[0]) ==
                  static_cast<size_t>(Opcode::NumOpcodes),
              "OpcodeInfo table out of sync with the Opcode enum");

const char *schedfilter::getOpcodeName(Opcode Op) {
  return getOpcodeInfo(Op).Name;
}
