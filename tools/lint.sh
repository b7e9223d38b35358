#!/bin/sh
# Repo lint: interface discipline and known footguns.  Run from anywhere;
# exits non-zero with one line per violation.
set -u
cd "$(dirname "$0")/.."
fail=0

# 1. Every module under lib/ carries an interface.  The allowlist is the
#    deliberate exceptions: pure-constant tables and type-only modules
#    whose full signature IS the implementation.
allow="lib/pthreads/costs.ml lib/pthreads/types.ml"
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

# 6. One engine probe and one chooser.  Observers (debugger, validator,
#    explorer footprints, fault injector, sanitizer) subscribe to the
#    engine's probe list.  Who runs next is decided by the chooser slot
#    alone (Engine.set_chooser): the perverted policies and the explorer
#    are choosers.  No [mutable ..._hook] field may grow back on the
#    engine record, no second decision flag ([pick_random_next]), and
#    nothing outside engine.ml (which installs the policy's chooser) may
#    read a config's [perverted] field.
hits=$( (grep -nE 'mutable[[:space:]]+[a-z_]*_hook[[:space:]]*:' lib/pthreads/types.ml
  grep -rn --include='*.ml' --include='*.mli' 'pick_random_next' lib/
  grep -rnE --include='*.ml' "\b[a-z_][A-Za-z0-9_']*\.perverted\b" lib/ |
    grep -v '^lib/pthreads/engine.ml:') )
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: second scheduling decision slot — subscribe to the engine probe (Engine.subscribe) to observe, install a chooser (Engine.set_chooser) to decide" >&2
  fail=1
fi

# 7. No module-level mutable state in the engine, the kernel or the
#    timer heap.  Shards run engines on parallel domains, so a cache
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
  lib/pthreads/engine.ml lib/vm/unix_kernel.ml lib/vm/timer_heap.ml)
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: module-level mutable state — keep it in the engine or kernel record (shards run engines on parallel domains)" >&2
  fail=1
fi

# 8. One host wait and one host clock.  The unix backend waits in the
#    epoll stub (nanosecond timeout; 1 ns timer slack, though Linux still
#    stretches a timeout by 1/1000 of itself, which Real_kernel's 200 us
#    polling window absorbs below a 200 ms block; no FD_SETSIZE ceiling)
#    and reads time from the CLOCK_MONOTONIC stub behind
#    Vm.Real_clock; select(2) and the steppable microsecond wall clock
#    must not creep back into the library.
hits=$(grep -rnE --include='*.ml' --include='*.mli' \
  'Unix\.(select|gettimeofday)' lib/)
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: Unix.select/Unix.gettimeofday in lib/ — wait in Real_kernel's epoll wait and read Vm.Real_clock" >&2
  fail=1
fi

# 9. No deprecation layer.  The semaphore, libc_r and tasking layers, the
#    checker, fault injector, sanitizer, bench and tests sit on the kernel
#    modules by design, so an alert on them is one every caller would
#    switch off: no alert attribute in lib/, no alert flag in a dune file.
hits=$( (grep -rnE --include='*.ml' --include='*.mli' \
  '\[@@deprecated|\[@@@alert' lib/
  find . -name _build -prune -o -name dune -type f -print |
    xargs grep -n -e '-alert' /dev/null) )
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: deprecation layer — call the kernel modules directly, without alerts or -alert flags" >&2
  fail=1
fi

# 10. One I/O wait for Net.  Both transports block on the engine: a
#     pipe or listener is plain data under the kernel flag with its own
#     I/O wait (Engine.io_block), and a socket's fired watch wakes its
#     thread directly.  No library mutex/cond layer and no SIGIO sigwait
#     loop may grow back in lib/pthreads/net.ml.
hits=$(grep -nE '\b(Mutex|Cond|Signal_api)\.' lib/pthreads/net.ml)
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: Mutex./Cond./Signal_api. in lib/pthreads/net.ml — block with Engine.io_block / wake with Engine.io_wake_*" >&2
  fail=1
fi

# 11. Shards have no service thread.  A shard's backend pump applies its
#     inbox inside the kernel and its idle wait steals, so no green thread
#     of the shard's own may come back to do either: lib/pthreads/shard.ml
#     blocks nothing on a shared-object reason (an await blocks on the
#     typed [On_await]), sets no signal mask and unparks no service.
hits=$(grep -nE 'On_shared|Signal_api|unpark_service' lib/pthreads/shard.ml)
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: service-thread machinery in lib/pthreads/shard.ml — apply messages in the wrapped pump, steal in the wrapped wait" >&2
  fail=1
fi

# 12. One registration per socket.  The unix backend registers each
#     socket with epoll once and keeps its waiters in the socket's two
#     slots; its socket calls are the non-blocking stubs of real_stubs.c,
#     which answer would-block with a negative int.  No Unix socket call,
#     no EAGAIN/EWOULDBLOCK exception and no rebuilt poll set may come
#     back in lib/vm/real_kernel.ml.
hits=$(grep -nE '\bUnix\.(read|write|accept|connect)\b|\b(EAGAIN|EWOULDBLOCK)\b|rebuild_poll_set|cache_ok|ppoll' \
  lib/vm/real_kernel.ml)
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: poll-set or raising socket call in lib/vm/real_kernel.ml — register once (epoll_add), fill a slot, call the real_stubs.c socket stubs" >&2
  fail=1
fi

# 13. No export without a use.  A value a lib/*/*.mli exports must be
#     named outside its own module (.ml and .mli): in lib/, bench/,
#     perfbench/, test/, examples/ or bin/.  The match is by word, so a
#     name also used elsewhere passes; it catches the export nobody
#     calls.  The allowlist is Module.name pairs, each with its reason:
#     - Sigset's signal names: the table mirrors <signal.h> whole, and a
#       program names only the signals it handles.
allow="Sigset.sigquit Sigset.sigill Sigset.sigabrt Sigset.sigbus
  Sigset.sigsegv Sigset.sigpipe Sigset.sigvtalrm Sigset.sigprof"
hits=$(grep -roE --include='*.ml' --include='*.mli' "[A-Za-z_][A-Za-z0-9_']*" \
  lib bench perfbench test examples bin |
  awk -F: -v allow=" $(echo $allow) " '
    FNR == NR {
      stem = $1; sub(/\.mli?$/, "", stem)
      if (!((stem, $2) in seen)) { seen[stem, $2]; n[$2]++; home[$2] = stem }
      next
    }
    match($0, /^[[:space:]]*val [a-z_][A-Za-z0-9_'"'"']*/) {
      v = substr($0, RSTART, RLENGTH); sub(/^[[:space:]]*val /, "", v)
      stem = FILENAME; sub(/\.mli$/, "", stem)
      m = stem; sub(/.*\//, "", m); m = toupper(substr(m, 1, 1)) substr(m, 2)
      if (n[v] == 1 && home[v] == stem && index(allow, " " m "." v " ") == 0)
        print FILENAME ":" FNR ": val " v
    }' - lib/*/*.mli)
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: export with no use outside its module — delete it, use it, or allowlist it with a reason in tools/lint.sh" >&2
  fail=1
fi

# 14. One heap.  Every deadline in the library, the kernel's timers and
#     the engine's timed waiters alike, lives in Vm.Timer_heap, whose
#     earliest key is exact.  No timing wheel (its bucket deadlines made
#     every idle wait a round of refinements), no cascade and no second
#     hand-written sift may come back anywhere else in lib/.
hits=$(grep -rniE --include='*.ml' --include='*.mli' --include='*.c' \
  'timer_wheel|cascade|sift' lib/ | grep -v '^lib/vm/timer_heap\.mli\?:')
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: a second timer index in lib/ — keep deadlines in Vm.Timer_heap" >&2
  fail=1
fi

# 15. One copy of each checking mechanism.  Check.Sample is the one
#     sampler (no random walk inside Explore), Explore.Shrink the one
#     shrinker (the fault soak minimizes plans with it), Explore.force the
#     one forced run.  The switches nobody turned off stay gone: sleep
#     sets go with DPOR, a nonzero exit always fails, the soak always
#     checks invariants, and schedule sampling is Check.Sample's, not the
#     soak's.
hits=$( (grep -rnE --include='*.ml' --include='*.mli' \
    'sleep_sets|fail_on_nonzero_exit|check_invariants|pct_depth' lib/
  grep -nE '^let[[:space:]]+(rec[[:space:]]+)?sample\b' lib/check/explore.ml) )
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: a second sampler or a removed checking option in lib/ — use Check.Sample / Explore.Shrink" >&2
  fail=1
fi

exit $fail
