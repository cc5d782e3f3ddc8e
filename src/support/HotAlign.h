//===- support/HotAlign.h - Pinned alignment of hot functions ---*- C++ -*-===//
///
/// \file
/// SCHEDFILTER_HOT_ALIGN starts a function on a 64-byte boundary.  The
/// per-block hot paths (DAG build, list scheduling, simulation, feature
/// extraction and the compile fold around them) carry it, so where the
/// linker lands them no longer depends on the size of unrelated code: an
/// edit elsewhere that shifted them by 16 bytes once moved the measured
/// compile time by 3-7%.  scripts/check_hot_alignment.sh checks a built
/// binary and lists every pinned function by name, so a newly pinned
/// function goes on that list too.  Compilers without the GNU attribute
/// get no pin.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SUPPORT_HOTALIGN_H
#define SCHEDFILTER_SUPPORT_HOTALIGN_H

#if defined(__GNUC__) || defined(__clang__)
#define SCHEDFILTER_HOT_ALIGN __attribute__((aligned(64)))
#else
#define SCHEDFILTER_HOT_ALIGN
#endif

#endif // SCHEDFILTER_SUPPORT_HOTALIGN_H
