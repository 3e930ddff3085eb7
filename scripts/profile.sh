#!/usr/bin/env bash
# Self-time profile of one `dlb run` scenario, for machines without perf.
#
#   scripts/profile.sh [-n TOP] KEY=VALUE...
#
# Builds the release `dlb` and a small SIGPROF sampler (an LD_PRELOAD
# library compiled with cc), runs `dlb run KEY=VALUE...` under it, and
# prints the TOP (default 25) symbols by self time: share of samples,
# sample count, symbol and object. The sampler asks for the interrupted
# program counter every millisecond of process CPU time, on whichever
# thread is running; the kernel delivers at most one per scheduler tick
# (4 ms at HZ=250), so give it a run of a tenth of a second or more.
# Each sample is charged to the symbol that `nm` places at or below it
# in its own object: time in inlined code counts for the function it
# was inlined into, and a stripped library (libc) resolves only to its
# exported names. `dlb`'s own output goes to stderr. Exits 1 if the run
# records no sample.
#
#   scripts/profile.sh algo=protocol net=homog m=5000 select=exact budget=12 patience=12 seed=1
set -euo pipefail

top=25
if [ "${1:-}" = "-n" ]; then
  top=$2
  shift 2
fi
if [ "$#" -eq 0 ]; then
  sed -n '2,4p' "$0" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cargo build --release --offline -q -p dlb-cli --manifest-path "$root/Cargo.toml"
dlb="${CARGO_TARGET_DIR:-$root/target}/release/dlb"
# Absolute: the sampler names the main program by the path it ran as.
dlb=$(cd "$(dirname "$dlb")" && pwd)/dlb

cat > "$work/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define CAP (1 << 21)
static void *pcs[CAP];
static unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *context) {
    ucontext_t *uc = context;
#if defined(__x86_64__)
    void *pc = (void *)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    void *pc = (void *)uc->uc_mcontext.pc;
#else
#error "no program counter for this architecture"
#endif
    unsigned long k = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (k < CAP) pcs[k] = pc;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

/* One line per sample: the object's path and the program counter as an
   address in that object's own numbering, which is what nm prints. */
__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(getenv("DLB_PROF_OUT"), "w");
    if (!out) return;
    unsigned long n = taken < CAP ? taken : CAP;
    for (unsigned long k = 0; k < n; k++) {
        Dl_info info;
        struct link_map *map;
        if (dladdr1(pcs[k], &info, (void **)&map, RTLD_DL_LINKMAP) && info.dli_fname && *info.dli_fname)
            fprintf(out, "%s %lu\n", info.dli_fname, (unsigned long)pcs[k] - map->l_addr);
        else
            fprintf(out, "? 0\n");
    }
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c" -ldl

DLB_PROF_OUT="$work/samples" LD_PRELOAD="$work/sampler.so" "$dlb" run "$@" >&2
sort "$work/samples" | uniq -c > "$work/counts" # "count object address"
total=$(awk '{ s += $1 } END { print s + 0 }' "$work/counts")
if [ "$total" -eq 0 ]; then
  echo "error: no samples: the run used less CPU time than one scheduler tick" >&2
  exit 1
fi

# Each object's text symbols by address. A stripped one has only its
# dynamic table, whose nearest export below a sample is marked "near":
# the code there is most likely an internal function after it.
for object in $(awk '{ print $2 }' "$work/counts" | sort -u); do
  near=""
  nm --defined-only -n -t d -C "$object" > "$work/symbols" 2>/dev/null || :
  if [ ! -s "$work/symbols" ]; then
    near="near "
    nm -D --defined-only -n -t d -C "$object" > "$work/symbols" 2>/dev/null || :
  fi
  awk -v object="$object" -v near="$near" '
    FILENAME == ARGV[1] {
      if ($2 ~ /^[tTwWiI]$/) { at[n] = $1 + 0; sub(/^[^ ]+ [^ ]+ /, ""); name[n++] = $0 }
      next
    }
    $2 == object {
      lo = 0; hi = n - 1; k = -1
      while (lo <= hi) {
        mid = int((lo + hi) / 2)
        if (at[mid] <= $3 + 0) { k = mid; lo = mid + 1 } else { hi = mid - 1 }
      }
      short = object; sub(/.*\//, "", short)
      print $1 "\t" (k < 0 ? "?" : near name[k]) "  [" short "]"
    }' "$work/symbols" "$work/counts"
done > "$work/attributed"

echo "# $total samples, dlb run $*"
awk -F '\t' '{ c[$2] += $1 } END { for (s in c) print c[s] "\t" s }' "$work/attributed" \
  | sort -t "$(printf '\t')" -k1,1nr \
  | head -n "$top" \
  | awk -F '\t' -v total="$total" '{ printf "%6.1f%%  %7d  %s\n", 100 * $1 / total, $1, $2 }'
