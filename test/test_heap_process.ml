(* Heap/pool model and the UNIX-process baseline. *)

open Tu
module K = Vm.Unix_kernel
module Heap = Vm.Heap
module Cost_model = Vm.Cost_model
module Unix_process = Vm.Unix_process
module Clock = Vm.Clock

let mk ~use_pool =
  let k = K.create Cost_model.sparc_ipx in
  (k, Heap.create k ~use_pool)

let test_alloc_sbrk () =
  let k, h = mk ~use_pool:false in
  Heap.alloc h 1_000;
  check bool "first alloc grows arena via sbrk" true
    (List.mem_assoc "sbrk" (K.trap_counts k));
  let traps = K.trap_count k in
  Heap.alloc h 1_000;
  check int "second alloc comes from arena" traps (K.trap_count k)

let test_alloc_exhaustion () =
  let k, h = mk ~use_pool:false in
  Heap.alloc h 1_000;
  Heap.alloc h (512 * 1024);
  check int "large alloc takes another sbrk" 2
    (List.assoc "sbrk" (K.trap_counts k))

let test_pool_cheap () =
  let k, h = mk ~use_pool:true in
  Heap.preallocate h 4;
  let allocs = Heap.allocations h in
  let t0 = K.now k in
  Heap.acquire_slab h;
  check int "no allocator call" allocs (Heap.allocations h);
  check bool "pool pop is cheap" true
    (K.now k - t0 < Cost_model.insns Cost_model.sparc_ipx 50);
  check int "pool shrank" 3 (Heap.pool_size h)

let test_pool_exhaustion_falls_back () =
  let _, h = mk ~use_pool:true in
  Heap.preallocate h 1;
  Heap.acquire_slab h;
  let allocs = Heap.allocations h in
  Heap.acquire_slab h;
  (* with the pool on, an exhausted acquire carves one contiguous slab *)
  check int "fell back to allocator" (allocs + 1) (Heap.allocations h)

let test_release_refills_pool () =
  let _, h = mk ~use_pool:true in
  Heap.preallocate h 1;
  Heap.acquire_slab h;
  Heap.release_slab h;
  check int "slab returned" 1 (Heap.pool_size h)

let test_pool_disabled () =
  let _, h = mk ~use_pool:false in
  Heap.acquire_slab h;
  check int "allocator used for TCB and stack" 2 (Heap.allocations h)

(* The paper's Table 2 baselines (SPARC IPX column): UNIX signal handler
   154 us, UNIX process context switch 123 us.  The shape matters: the
   process switch must be several times a thread switch (~37 us), and the
   signal handler in the low hundreds of us. *)
let test_signal_roundtrip_shape () =
  let us = Unix_process.signal_roundtrip_ns Cost_model.sparc_ipx ~iterations:100 /. 1e3 in
  check bool (Printf.sprintf "signal handler ~154us (got %.1f)" us) true
    (us > 120.0 && us < 190.0)

let test_process_switch_shape () =
  let us = Unix_process.context_switch_ns Cost_model.sparc_ipx ~iterations:100 /. 1e3 in
  check bool (Printf.sprintf "process switch ~123us (got %.1f)" us) true
    (us > 95.0 && us < 150.0)

let test_process_switch_dwarfs_thread_switch () =
  let proc_sw = Unix_process.context_switch_ns Cost_model.sparc_ipx ~iterations:100 in
  check bool "process switch >> 37us thread switch" true
    (proc_sw > 2.0 *. 37_000.0)

let test_sparc1plus_slower () =
  let ipx = Unix_process.signal_roundtrip_ns Cost_model.sparc_ipx ~iterations:50 in
  let one = Unix_process.signal_roundtrip_ns Cost_model.sparc_1plus ~iterations:50 in
  check bool "1+ slower" true (one > ipx *. 1.3)

let suite =
  [
    ( "vm.heap",
      [
        tc "alloc sbrk" test_alloc_sbrk;
        tc "arena exhaustion" test_alloc_exhaustion;
        tc "pool cheap" test_pool_cheap;
        tc "pool exhaustion fallback" test_pool_exhaustion_falls_back;
        tc "release refills" test_release_refills_pool;
        tc "pool disabled" test_pool_disabled;
      ] );
    ( "vm.unix_process",
      [
        tc "signal roundtrip shape" test_signal_roundtrip_shape;
        tc "process switch shape" test_process_switch_shape;
        tc "process >> thread switch" test_process_switch_dwarfs_thread_switch;
        tc "SPARC 1+ slower" test_sparc1plus_slower;
      ] );
  ]
