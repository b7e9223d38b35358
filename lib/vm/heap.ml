type t = {
  k : Unix_kernel.t;
  mutable arena_free : int;
  mutable brk : int;
  mutable pool : int;
  mutable pool_enabled : bool;
  mutable n_allocs : int;
  mutable live_slabs : int;
  mutable peak_slabs : int;
}

(* Instruction charges for the allocator fast paths: a 1990s first-fit
   malloc walks a free list and splits a block (~500 insns); free coalesces
   (~200); a pool pop/push is a handful of pointer operations. *)
let malloc_insns = 500
let free_insns = 200
let pool_insns = 12

(* Arena-growth granularity, and the size of one TCB+stack slab. *)
let chunk_bytes = 256 * 1024
let slab_bytes = 17 * 1024

let create k ~use_pool =
  { k; arena_free = 0; brk = 0; pool = 0; pool_enabled = use_pool;
    n_allocs = 0; live_slabs = 0; peak_slabs = 0 }

let use_pool t = t.pool_enabled

let alloc t bytes =
  t.n_allocs <- t.n_allocs + 1;
  Unix_kernel.insns t.k malloc_insns;
  if bytes > t.arena_free then begin
    let grow = max chunk_bytes bytes in
    Unix_kernel.sbrk t.k grow;
    t.brk <- t.brk + grow;
    t.arena_free <- t.arena_free + grow
  end;
  t.arena_free <- t.arena_free - bytes

let free t bytes =
  Unix_kernel.insns t.k free_insns;
  t.arena_free <- t.arena_free + bytes

let preallocate t n =
  for _ = 1 to n do
    alloc t slab_bytes;
    t.pool <- t.pool + 1
  done

let tcb_bytes = 1024

let acquire_slab t =
  t.live_slabs <- t.live_slabs + 1;
  if t.live_slabs > t.peak_slabs then t.peak_slabs <- t.live_slabs;
  if t.pool_enabled && t.pool > 0 then begin
    Unix_kernel.insns t.k pool_insns;
    t.pool <- t.pool - 1
  end
  else if t.pool_enabled then
    (* pool exhausted: the slab (TCB + stack, contiguous) is carved from
       the arena in one allocation and will be returned to the pool, so the
       arena only ever grows to the high-water mark of live threads *)
    alloc t slab_bytes
  else begin
    (* pool disabled (the ablation): the naive path — TCB and stack are
       separate allocations *)
    alloc t tcb_bytes;
    alloc t (slab_bytes - tcb_bytes)
  end

let release_slab t =
  t.live_slabs <- t.live_slabs - 1;
  if t.pool_enabled then begin
    Unix_kernel.insns t.k pool_insns;
    t.pool <- t.pool + 1
  end
  else begin
    free t tcb_bytes;
    free t (slab_bytes - tcb_bytes)
  end

let pool_size t = t.pool
let allocations t = t.n_allocs
let brk_bytes t = t.brk
let peak_slabs t = t.peak_slabs
