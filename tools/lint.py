#!/usr/bin/env python3
"""Repo-invariant lint for armnet.

Enforces the rules clang-tidy cannot express (see DESIGN.md "Correctness
tooling"):

  guard        every header under src/ has an ARMNET_<PATH>_H_ include guard
               (#ifndef / #define pair and a commented #endif)
  raw-abort    no raw assert()/abort() outside src/util/check.h; programmer
               errors go through ARMNET_CHECK/ARMNET_DCHECK, recoverable
               errors through armnet::Status
  stdout       no std::cout / printf / puts in src/ (library code reports via
               Status or CHECK streams; stderr logging is allowed)
  kernel-pre   every kernel dispatcher in src/tensor/kernels.cc DCHECKs its
               pointer/size preconditions before entering the raw-pointer
               scalar/SIMD implementations
  raw-ofstream persistent artifacts must go through the durable writers
               (nn::StateWriter's atomic write-then-rename, the loaders'
               checked streams, util/csv.cc's WriteLines); direct
               std::ofstream elsewhere in src/ bypasses CRC framing and
               atomic-commit guarantees
  supp-policy  every entry in tools/sanitizers/*.supp carries an explanatory
               comment directly above it (empty-by-default policy)
  raw-chrono   no direct std::chrono use in src/ outside util/stopwatch.h and
               CondVar::WaitFor (util/sync.cc); timing goes through
               Stopwatch (one steady-clock choice)
  nograd-eval  evaluation entry points in src/armor/ and src/interpret/ must
               establish a NoGradGuard before calling a model Forward, so
               serving paths stay tape-free (allowlist: the trainer, whose
               training step differentiates through Forward)
  mutex-facade no raw std::mutex / std::lock_guard / std::unique_lock /
               std::condition_variable in src/ outside util/sync.{h,cc};
               concurrency goes through the annotated facade so Clang's
               thread-safety analysis sees every lock (DESIGN.md §12)
  ts-escape    every ARMNET_NO_THREAD_SAFETY_ANALYSIS outside util/sync.h
               carries a justification comment directly above it
               (empty-by-default policy, like sanitizer suppressions)
  mmap-isolation
               raw mmap/munmap (and <sys/mman.h>) live only in
               src/nn/embedding_store.cc, whose MappedFile owns the mapping
               lifetime through the QuantizedTable keep-alive and fully
               validates the envelope before any mapped byte escapes
  drift-drain  drift-window and shadow-mirror bookkeeping stays off the
               request critical path: PredictionService::Submit / Predict in
               src/serve/service.cc may not touch the drift monitor or the
               shadow machinery — histogram/window math runs only when a
               worker drains a batch (DESIGN.md §15)
  layering     the include graph respects the layer DAG declared in
               tools/layering.py (no up-layer includes, no same-layer
               directory cycles)

Usage:
  tools/lint.py                 # run all text lints on src/ and tools/
  tools/lint.py --clang-tidy    # additionally run clang-tidy on src/**/*.cc
                                # (requires a compile_commands.json; pass
                                # --build-dir, default build/release)

Exits non-zero if any finding is reported.
"""

import argparse
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

findings = []


def report(path, line, rule, message):
    findings.append(f"{path.relative_to(REPO_ROOT)}:{line}: [{rule}] {message}")


def expected_guard(header: Path) -> str:
    rel = header.relative_to(SRC)
    token = re.sub(r"[^A-Za-z0-9]", "_", str(rel)).upper()
    return f"ARMNET_{token}_"


def check_header_guards():
    for header in sorted(SRC.rglob("*.h")):
        guard = expected_guard(header)
        text = header.read_text()
        lines = text.splitlines()
        if f"#ifndef {guard}" not in text:
            report(header, 1, "guard", f"missing '#ifndef {guard}'")
            continue
        if f"#define {guard}" not in text:
            report(header, 1, "guard", f"missing '#define {guard}'")
        endif_re = re.compile(rf"#endif\s*//\s*{guard}\s*$")
        if not any(endif_re.search(line) for line in lines):
            report(header, len(lines), "guard",
                   f"missing closing '#endif  // {guard}'")


ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")
ABORT_RE = re.compile(r"(?<![\w:.])abort\s*\(")
STDOUT_RE = re.compile(r"std::cout|(?<![\w.])printf\s*\(|(?<![\w.])puts\s*\(")


def strip_comments(line: str) -> str:
    # Good enough for lint purposes: drop // comments (string literals in this
    # codebase do not contain '//').
    return line.split("//", 1)[0]


def check_source_rules():
    check_h = SRC / "util" / "check.h"
    for path in sorted(list(SRC.rglob("*.h")) + list(SRC.rglob("*.cc"))):
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = strip_comments(raw)
            if "static_assert" in line:
                line = line.replace("static_assert", "")
            if path != check_h:
                if ASSERT_RE.search(line):
                    report(path, lineno, "raw-abort",
                           "raw assert(); use ARMNET_CHECK/ARMNET_DCHECK")
                if ABORT_RE.search(line):
                    report(path, lineno, "raw-abort",
                           "raw abort(); use ARMNET_CHECK (it aborts with "
                           "context)")
            if STDOUT_RE.search(line):
                report(path, lineno, "stdout",
                       "stdout output in library code; return armnet::Status "
                       "or stream onto a CHECK instead")


# Function-definition opener in the dispatch layer: a kernel returns void or
# float and is defined at namespace scope.
KERNEL_DEF_RE = re.compile(r"^(?:void|float)\s+(\w+)\s*\(")


def check_kernel_preconditions():
    path = SRC / "tensor" / "kernels.cc"
    lines = path.read_text().splitlines()
    # Collect (name, start_line, body_text) for each top-level definition.
    defs = []
    for i, line in enumerate(lines):
        m = KERNEL_DEF_RE.match(line)
        if m:
            defs.append((m.group(1), i))
    for idx, (name, start) in enumerate(defs):
        end = defs[idx + 1][1] if idx + 1 < len(defs) else len(lines)
        body = "\n".join(lines[start:end])
        if "ARMNET_DCHECK" not in body and "ARMNET_KERNEL_PRECONDITIONS" not in body:
            report(path, start + 1, "kernel-pre",
                   f"kernel dispatcher '{name}' has no ARMNET_DCHECK on its "
                   "pointer/size preconditions")


# Files allowed to construct std::ofstream directly: the durable writers
# themselves. Everything else must serialize through them so every artifact
# gets stream-state checking (and, for state files, CRC + atomic rename).
OFSTREAM_RE = re.compile(r"std::ofstream")
OFSTREAM_ALLOWLIST = {
    Path("nn") / "serialize.cc",   # atomic CRC-framed state writer
    Path("data") / "loader.cc",    # checked SaveLibsvm / quarantine sink
    Path("util") / "csv.cc",       # checked WriteLines helper
}


def check_raw_ofstream():
    for path in sorted(list(SRC.rglob("*.h")) + list(SRC.rglob("*.cc"))):
        if path.relative_to(SRC) in OFSTREAM_ALLOWLIST:
            continue
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            if OFSTREAM_RE.search(strip_comments(raw)):
                report(path, lineno, "raw-ofstream",
                       "direct std::ofstream outside the durable writers; "
                       "persist state via nn::StateWriter (atomic + CRC) or "
                       "text via util/csv.h WriteLines")


# Ad-hoc std::chrono timing in library code picks its own clock (often the
# non-monotonic system_clock). Timing belongs in Stopwatch (the one
# steady_clock wrapper); only the timing primitives themselves may name the
# clock.
CHRONO_RE = re.compile(r"(?<![\w:])std::chrono|#include\s*<chrono>")
CHRONO_ALLOWLIST = {
    Path("util") / "stopwatch.h",  # the steady-clock wrapper itself
    Path("util") / "sync.cc",      # CondVar::WaitFor's timed wait
}


def check_raw_chrono():
    for path in sorted(list(SRC.rglob("*.h")) + list(SRC.rglob("*.cc"))):
        if path.relative_to(SRC) in CHRONO_ALLOWLIST:
            continue
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            if CHRONO_RE.search(strip_comments(raw)):
                report(path, lineno, "raw-chrono",
                       "direct std::chrono outside the timing primitives; "
                       "use util/stopwatch.h Stopwatch")


# Evaluation-only subsystems: every model Forward they issue must run under
# an established NoGradGuard (tape-free serving, DESIGN.md §9). The trainer
# is the one legitimate taped Forward caller in scope.
NOGRAD_DIRS = ("armor", "interpret", "serve")
NOGRAD_ALLOWLIST = {
    Path("armor") / "trainer.cc",  # training step differentiates via Forward
}
FORWARD_CALL_RE = re.compile(r"[.>]\s*Forward(WithTrace)?\s*\(")
# Top-level function definitions start at column 0 in this codebase; a new
# definition resets the "guard established" state so each evaluation entry
# point needs its own NoGradGuard.
FUNC_START_RE = re.compile(r"^[A-Za-z_](?!amespace\b).*\(")


def check_nograd_eval():
    for d in NOGRAD_DIRS:
        for path in sorted((SRC / d).glob("*.cc")):
            if path.relative_to(SRC) in NOGRAD_ALLOWLIST:
                continue
            guard_established = False
            for lineno, raw in enumerate(path.read_text().splitlines(),
                                         start=1):
                line = strip_comments(raw)
                if FUNC_START_RE.match(line):
                    guard_established = False
                if "NoGradGuard" in line:
                    guard_established = True
                if FORWARD_CALL_RE.search(line) and not guard_established:
                    report(path, lineno, "nograd-eval",
                           "model Forward without an established NoGradGuard;"
                           " evaluation paths must be tape-free (see "
                           "autograd/grad_mode.h)")


# The drift monitor's sliding windows and the shadow evaluator live behind
# mutexes and do real math (bucket rotation, PSI); putting them on the
# submit path would tax every caller and contend the very threads the
# sharded-counter scheme was built to decouple. Updates and alert
# evaluation belong to the drain path (ProcessBatch), so the request
# critical path — Submit and the blocking Predict convenience — may not
# name the drift/shadow machinery at all.
DRIFT_HOT_FUNC_RE = re.compile(r"PredictionService::(Submit|Predict)\s*\(")
DRIFT_MACHINERY_RE = re.compile(
    r"\bdrift_\b|\bshadow_eval_\b|\bObserveDrift\s*\(|"
    r"\bHandleDriftEvents\s*\(|\bMirrorToShadow\s*\(")


def check_drift_drain():
    path = SRC / "serve" / "service.cc"
    in_hot_path = False
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = strip_comments(raw)
        if FUNC_START_RE.match(line):
            in_hot_path = bool(DRIFT_HOT_FUNC_RE.search(line))
        if in_hot_path and DRIFT_MACHINERY_RE.search(line):
            report(path, lineno, "drift-drain",
                   "drift/shadow machinery on the request critical path; "
                   "window updates and mirroring run only on the worker "
                   "drain path (DESIGN.md §15)")


# Raw standard-library synchronization primitives are invisible to Clang's
# thread-safety analysis: a std::lock_guard on a std::mutex carries no
# capability, so guarded state can be touched with no lock held and the
# analysis stays silent. All locking in src/ goes through the annotated
# facade (armnet::Mutex / MutexLock / CondVar in util/sync.h) so every
# critical section is visible to -Wthread-safety. Only the facade itself may
# name the std primitives it wraps.
RAW_SYNC_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(_any)?)\b"
    r"|#include\s*<(mutex|condition_variable|shared_mutex)>")
SYNC_ALLOWLIST = {
    Path("util") / "sync.h",   # the annotated facade itself
    Path("util") / "sync.cc",  # CondVar's adopt-lock bridge to std::mutex
}


def check_mutex_facade():
    for path in sorted(list(SRC.rglob("*.h")) + list(SRC.rglob("*.cc"))):
        if path.relative_to(SRC) in SYNC_ALLOWLIST:
            continue
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            if RAW_SYNC_RE.search(strip_comments(raw)):
                report(path, lineno, "mutex-facade",
                       "raw standard-library synchronization primitive; use "
                       "armnet::Mutex/MutexLock/CondVar from util/sync.h so "
                       "thread-safety analysis sees the lock (DESIGN.md §12)")


# Escapes from thread-safety analysis follow the same empty-by-default policy
# as sanitizer suppressions: each one outside the facade header needs a
# justification comment directly above it explaining why the analysis cannot
# see the invariant that makes the code safe.
TS_ESCAPE = "ARMNET_NO_THREAD_SAFETY_ANALYSIS"


def check_ts_escapes():
    sync_h = SRC / "util" / "sync.h"
    for path in sorted(list(SRC.rglob("*.h")) + list(SRC.rglob("*.cc"))):
        if path == sync_h:
            continue
        lines = path.read_text().splitlines()
        for lineno, raw in enumerate(lines, start=1):
            if TS_ESCAPE not in strip_comments(raw):
                continue
            prev = lines[lineno - 2].strip() if lineno >= 2 else ""
            justified = prev.startswith("//") and prev.strip("/ ").strip()
            if not justified:
                report(path, lineno, "ts-escape",
                       f"{TS_ESCAPE} without a justification comment "
                       "directly above it (empty-by-default policy, "
                       "DESIGN.md §12)")


# Memory mapping is confined to the embedding-store TU: MappedFile there
# owns the munmap lifetime (kept alive by the QuantizedTable handle) and
# validates the whole envelope before any mapped byte escapes. A raw mmap anywhere else would create an
# unmanaged mapping lifetime outside that contract.
MMAP_RE = re.compile(r"(?<![\w:.])(mmap|munmap)\s*\(|#include\s*<sys/mman\.h>")
MMAP_ALLOWLIST = {
    Path("nn") / "embedding_store.cc",  # MappedFile + envelope validation
}


def check_mmap_isolation():
    for path in sorted(list(SRC.rglob("*.h")) + list(SRC.rglob("*.cc"))):
        if path.relative_to(SRC) in MMAP_ALLOWLIST:
            continue
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            if MMAP_RE.search(strip_comments(raw)):
                report(path, lineno, "mmap-isolation",
                       "raw mmap/munmap outside nn/embedding_store.cc; open "
                       "mapped weights through OpenMappedEmbeddingStore so "
                       "the mapping lifetime and validation stay owned")


def check_layering():
    import layering
    findings.extend(layering.check_files(layering.load_repo_files()))


def check_suppression_policy():
    supp_dir = REPO_ROOT / "tools" / "sanitizers"
    for supp in sorted(supp_dir.glob("*.supp")):
        lines = supp.read_text().splitlines()
        prev_commented = False
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                prev_commented = False
                continue
            if stripped.startswith("#"):
                prev_commented = True
                continue
            # Entry line: must sit directly under an explanatory comment (or
            # under another entry of the same commented block).
            if not prev_commented:
                report(supp, lineno, "supp-policy",
                       "suppression entry without an explanatory comment "
                       "directly above it (see tools/sanitizers/README.md)")
            # Stay "commented" for multi-entry blocks under one comment.


def run_clang_tidy(build_dir: Path) -> int:
    tidy = shutil.which("clang-tidy")
    if tidy is None:
        print("lint.py: clang-tidy not found on PATH; skipping "
              "(the CI lint job runs it)", file=sys.stderr)
        return 0
    compdb = build_dir / "compile_commands.json"
    if not compdb.exists():
        print(f"lint.py: {compdb} not found; configure with "
              "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON first", file=sys.stderr)
        return 1
    sources = [str(p) for p in sorted(SRC.rglob("*.cc"))]
    proc = subprocess.run([tidy, "-p", str(build_dir), "--quiet"] + sources)
    return proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clang-tidy", action="store_true",
                        help="also run clang-tidy over src/**/*.cc")
    parser.add_argument("--build-dir", type=Path,
                        default=REPO_ROOT / "build" / "release",
                        help="build dir holding compile_commands.json")
    args = parser.parse_args()

    check_header_guards()
    check_source_rules()
    check_kernel_preconditions()
    check_raw_ofstream()
    check_raw_chrono()
    check_nograd_eval()
    check_drift_drain()
    check_mutex_facade()
    check_mmap_isolation()
    check_ts_escapes()
    check_layering()
    check_suppression_policy()

    for finding in findings:
        print(finding)
    status = 1 if findings else 0

    if args.clang_tidy:
        status = max(status, run_clang_tidy(args.build_dir))

    if status == 0:
        print("lint.py: clean")
    return status


if __name__ == "__main__":
    sys.exit(main())
