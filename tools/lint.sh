#!/bin/sh
# Repo lint: interface discipline and known footguns.  Run from anywhere;
# exits non-zero with one line per violation.
set -u
cd "$(dirname "$0")/.."
fail=0

# 1. Every module under lib/ carries an interface.  The allowlist is the
#    deliberate exceptions: pure-constant tables and type-only modules
#    whose full signature IS the implementation.
allow="lib/pthreads/costs.ml lib/pthreads/import.ml lib/pthreads/types.ml"
for f in lib/*/*.ml; do
  case " $allow " in *" $f "*) continue ;; esac
  if [ ! -f "${f%.ml}.mli" ]; then
    echo "lint: $f has no interface (.mli) — add one or allowlist it in tools/lint.sh" >&2
    fail=1
  fi
done

# 2. No Obj.magic anywhere in the library tree.
if grep -rn --include='*.ml' --include='*.mli' 'Obj\.magic' lib/ >&2; then
  echo "lint: Obj.magic is banned in lib/" >&2
  fail=1
fi

# 3. No polymorphic comparison on TCBs.  The link sentinels close the
#    TCB and mutex graphs into cycles, so structural (=)/(<>) against them
#    loops or lies; the links are defined over physical identity (==)/(!=).
#    Record-field initializers ("q_next = nil_tcb;") are the one legal
#    structural-looking form and are filtered out.
nil='(nil_tcb|nil_pq|nil_mutex|nil_cond|nil_level)'
hits=$(grep -rnE --include='*.ml' "(=|<>)[[:space:]]*$nil" lib/pthreads/ |
  grep -vE "=[[:space:]]*$nil[[:space:]]*([;}].*)?\$" |
  grep -vE "(==|!=)[[:space:]]*$nil")
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: structural compare against a nil_* sentinel in lib/pthreads — use (==)/(!=)" >&2
  fail=1
fi

# 4. Direct Unix.* calls are confined to lib/vm (the backends own the
#    host interface: Real_kernel/Real_clock for the event loop and time,
#    Unix_process for process plumbing).  Everything above the backend
#    seam must go through the portable API — Pthreads.Net for sockets,
#    Vm.Real_clock for wall time — so the same code runs on both
#    backends.  Tests are exempt (they exercise host-signal forwarding
#    deliberately).  The \b..[a-z] shape avoids matching Unix_kernel etc.
hits=$(grep -rnE --include='*.ml' --include='*.mli' '\bUnix\.[a-z]' \
  lib/ bench/ examples/ bin/ | grep -v '^lib/vm/')
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: direct Unix.* call outside lib/vm — use Pthreads.Net / Vm.Real_clock (or add a backend op)" >&2
  fail=1
fi

# 5. No host sleep in the library: an idle engine or shard blocks until
#    an event ends the wait (backend [wait], the shard park, the [wake]
#    doorbell), and a contended cross-shard lock sleeps inside the host
#    mutex.  No exception.
hits=$(grep -rnE --include='*.ml' --include='*.mli' \
  'sleepf|Unix\.sleep|\bThread\.delay|Real_clock\.nap' lib/)
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: host sleep in lib/ — block on an event instead of sleep-polling" >&2
  fail=1
fi

# 6. One engine probe.  Observers (debugger, validator, explorer
#    footprints, fault injector, sanitizer) subscribe to the engine's
#    probe list; the explorer's chooser is the one callback slot, because
#    it returns the next thread instead of observing.  No other
#    [mutable ..._hook] field may grow back on the engine record.
hits=$(grep -nE 'mutable[[:space:]]+[a-z_]*_hook[[:space:]]*:' lib/pthreads/types.ml |
  grep -v 'mutable explore_hook')
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: hook slot in lib/pthreads/types.ml — subscribe to the engine probe (Engine.subscribe) instead" >&2
  fail=1
fi

# 7. No module-level mutable state in the engine, the kernel or the
#    timing wheel.  Shards run engines on parallel domains, so a cache
#    added for speed must live in the engine or kernel record: a top-level
#    [let x = ref ...], [Hashtbl.create], [Array.make] (or the like) is
#    shared by every domain.  A value-binding's right-hand side is read
#    from its own line or, when the line ends at "=", from the next one.
hits=$(awk '
  pending { if ($0 ~ re) print FILENAME ":" line ": " text; pending = 0 }
  /^let [a-z_][A-Za-z0-9_'"'"']*[[:space:]]*(:[^=]*)?=/ {
    text = $0; line = FNR
    rhs = $0; sub(/^[^=]*=/, "", rhs)
    if (rhs ~ /^[[:space:]]*$/) pending = 1
    else if (rhs ~ re) print FILENAME ":" FNR ": " $0
  }' re='^[[:space:]]*(ref[[:space:](]|(Hashtbl|Queue|Stack|Buffer|Atomic)\.create|Atomic\.make|Array\.(make|init)|Bytes\.(make|create))' \
  lib/pthreads/engine.ml lib/vm/unix_kernel.ml lib/vm/timer_wheel.ml)
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: module-level mutable state — keep it in the engine or kernel record (shards run engines on parallel domains)" >&2
  fail=1
fi

exit $fail
