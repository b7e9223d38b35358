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

# 3. No polymorphic comparison on TCBs.  The queue sentinels close the
#    TCB graph into cycles, so structural (=)/(<>) against them loops or
#    lies; the queues are defined over physical identity (==)/(!=).
#    Record-field initializers ("q_next = nil_tcb;") are the one legal
#    structural-looking form and are filtered out.
hits=$(grep -rnE --include='*.ml' '(=|<>)[[:space:]]*(nil_tcb|nil_pq)' lib/pthreads/ |
  grep -vE '=[[:space:]]*(nil_tcb|nil_pq)[[:space:]]*([;}].*)?$' |
  grep -vE '(==|!=)[[:space:]]*(nil_tcb|nil_pq)')
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: structural compare against nil_tcb/nil_pq in lib/pthreads — use (==)/(!=)" >&2
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

# 5. No sleep-polling in the library: an idle engine or shard blocks until
#    an event ends the wait (backend [wait], the shard park, the [wake]
#    doorbell).  The queue lock's bounded-spin backoff is the one
#    deliberate nap.
hits=$(grep -rn --include='*.ml' 'Real_clock\.nap' lib/ | grep -v '^lib/pthreads/qlock\.ml:')
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: Real_clock.nap outside lib/pthreads/qlock.ml — block on an event instead of sleep-polling" >&2
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

exit $fail
