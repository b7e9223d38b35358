(** Heap and thread-resource pool model.

    The paper observes that allocating the stack and thread control block
    accounts for about 70% of thread-creation time, and that "this could be
    avoided in most cases by preallocating a pool of thread control blocks
    and stacks.  Thus, dynamic memory allocation would only be performed when
    the pool space is exhausted at creation time."  Its measurements are
    taken with the pool enabled ("pre-cached in a memory pool").

    This module models both paths so the ablation can be benchmarked:
    - [alloc]/[free]: a malloc-style allocator charging list-walk
      instructions and an occasional [sbrk] kernel call when the arena is
      exhausted;
    - [acquire_slab]/[release_slab]: the TCB+stack pool — a cheap free-list
      pop when the pool is warm, falling back to a single-allocation arena
      carve when empty (two separate allocations with the pool disabled).

    The module also keeps the process's simulated memory ledger: [brk_bytes]
    is the total the arena has obtained from [sbrk], and [peak_slabs]
    is the most thread slabs ever in use at once, so a scaling benchmark
    can report measured bytes per thread ([brk_bytes / peak_slabs]). *)

type t

val create :
  Unix_kernel.t -> ?chunk_bytes:int -> ?slab_bytes:int -> use_pool:bool -> unit -> t
(** [chunk_bytes] is the arena-growth granularity (default 256 KiB);
    [slab_bytes] the size of one TCB+stack slab (default 17 KiB). *)

val use_pool : t -> bool

val preallocate : t -> int -> unit
(** Fill the pool with that many slabs (charged as bulk allocation; done at
    library initialization, off the timed paths). *)

val alloc : t -> int -> unit
(** Allocate that many bytes from the heap, charging allocator instructions
    and, when the arena is exhausted, an [sbrk]. *)

val free : t -> int -> unit

val acquire_slab : t -> unit
(** Obtain a TCB+stack slab: a pool pop when the pool is warm, one arena
    carve when it is exhausted, two separate allocations when it is
    disabled. *)

val release_slab : t -> unit
(** Return a slab (pool push, or [free]). *)

val pool_size : t -> int
val allocations : t -> int
(** Number of [alloc] calls that went to the allocator (not the pool). *)

val brk_bytes : t -> int
(** Total bytes the arena has obtained from [sbrk] — the simulated
    process's heap footprint (never shrinks). *)

val peak_slabs : t -> int
(** High-water mark of thread slabs in use. *)
