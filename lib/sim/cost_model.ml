(** Virtual-time cost model.

    All durations are CPU cycles of the paper's testbed (Xeon Gold 5212 @
    2.5 GHz).  Paper-given constants (Section 3.3 and 5.1): a standard
    x86 call/ret is ~24 cycles, jmpp+pret is ~70 cycles (so Simurgh
    operations are surcharged 46 cycles, exactly as the paper does), a
    real-hardware syscall (geteuid) is ~400 cycles, gem5's empty syscall
    ~1200 cycles.  NVMM characteristics follow published Optane DC
    characterizations (~300 ns read latency; ~2.2-2.6 GB/s write and
    ~6.6 GB/s read per DIMM; 6 DIMMs interleaved). *)

type t = {
  freq_hz : float;  (** CPU frequency used to convert cycles to seconds *)
  call_cycles : float;  (** standard function call + return *)
  jmpp_pret_cycles : float;  (** protected call + protected return *)
  syscall_cycles : float;  (** kernel trap entry + exit on real hardware *)
  vfs_dispatch_cycles : float;
      (** VFS layer per-syscall work outside the concrete FS: fd lookup,
          argument checking, generic_file plumbing *)
  dcache_hit_cycles : float;  (** dentry-cache lookup per path component *)
  dcache_miss_cycles : float;
      (** failed dentry-cache probe (hash walk that finds nothing) before
          falling through to the on-media lookup, which is charged
          separately by the concrete FS *)
  rcache_hit_cycles : float;
      (** Simurgh user-level resolve-cache hit: one DRAM hash probe, no
          kernel lockref traffic (contrast {!dcache_hit_cycles}) *)
  nvmm_read_latency : float;  (** per random cache-line miss *)
  nvmm_meta_read_latency : float;
      (** effective latency of metadata line reads: hot metadata (directory
          rows, inodes of a working set) largely lives in the CPU caches,
          so the blended cost is far below a cold Optane miss *)
  nvmm_write_latency : float;  (** per non-temporal-store retire *)
  nvmm_read_bw : float;  (** aggregate, bytes per cycle *)
  nvmm_write_bw : float;
  nvmm_read_bw_thread : float;  (** single-thread achievable, bytes/cycle *)
  nvmm_write_bw_thread : float;
  dram_read_latency : float;
  dram_bw : float;
  dram_bw_thread : float;
  memcpy_bytes_per_cycle : float;  (** CPU-side copy cost (wide stores) *)
  atomic_uncontended : float;  (** lock cmpxchg, line already local *)
  atomic_contended : float;  (** cache-line transfer between cores *)
  cacheline : int;
  numa_sockets : int;
      (** sockets of the DIMM/socket model; region [r] lives on socket
          [r mod numa_sockets].  With the default single region (id 0)
          and threads homed on socket 0 no access is ever remote, so the
          legacy virtual-time results are bit-identical *)
  numa_remote_lat_mult : float;
      (** latency multiplier for cache-line NVMM accesses that cross the
          UPI link (published Optane characterizations put remote PM
          latency at ~1.7x local) *)
  numa_remote_bw_mult : float;
      (** single-thread achievable-bandwidth multiplier for remote
          streaming NVMM traffic (remote PM write bandwidth collapses
          far below local; ~0.55x is the conservative published figure) *)
  protected_stack_cycles : float;
      (** extra cycles per protected entry for relocating the stack
          pointer onto the protected stack and back (Section 3.2).  The
          paper's measured 70-cycle jmpp+pret figure already includes the
          stack switch, so the default is 0.0 and the published virtual
          times are unchanged; raise it to ablate the stack-relocation
          cost separately *)
  perm_check_cycles : float;
      (** cost of one in-protected-region permission check that reads
          the owner/mode word from the NVMM fentry (one cached metadata
          word compare).  Charged only when the volume was formatted with
          the [secure] flag, so legacy media and the published figures
          are unaffected, and only when the word is read from the
          fentry: a word delivered by a resolve-cache hit arrives inside
          the {!rcache_hit_cycles} probe and is checked for free *)
}

let default =
  {
    freq_hz = 2.5e9;
    call_cycles = 24.0;
    jmpp_pret_cycles = 70.0;
    syscall_cycles = 400.0;
    vfs_dispatch_cycles = 350.0;
    dcache_hit_cycles = 110.0;
    (* kept equal to the hit cost by default: the historical model charged
       one blended probe cost on both outcomes, and the published figures
       are calibrated against that.  Raise it (e.g. in a custom model) to
       study negative-lookup-heavy workloads. *)
    dcache_miss_cycles = 110.0;
    rcache_hit_cycles = 60.0;
    nvmm_read_latency = 750.0 (* ~300 ns *);
    nvmm_meta_read_latency = 200.0 (* blend of LLC hits and media misses *);
    nvmm_write_latency = 250.0 (* ~100 ns to ADR-safe buffer *);
    nvmm_read_bw = 14.8 (* ~37 GB/s over 6 DIMMs *);
    nvmm_write_bw = 5.2 (* ~13 GB/s *);
    nvmm_read_bw_thread = 2.6 (* ~6.5 GB/s *);
    nvmm_write_bw_thread = 1.8 (* ~4.5 GB/s sequential ntstore *);
    dram_read_latency = 250.0;
    dram_bw = 32.0 (* ~80 GB/s *);
    dram_bw_thread = 4.8 (* ~12 GB/s *);
    memcpy_bytes_per_cycle = 16.0;
    atomic_uncontended = 20.0;
    atomic_contended = 120.0;
    cacheline = 64;
    numa_sockets = 2;
    numa_remote_lat_mult = 1.7;
    numa_remote_bw_mult = 0.55;
    protected_stack_cycles = 0.0;
    perm_check_cycles = 30.0;
  }

(** Socket a region id maps to in the DIMM/socket model. *)
let socket_of_region cm r = r mod max 1 cm.numa_sockets

(** Extra cycles Simurgh pays per externally visible operation for the
    protected-function entry/exit versus a plain call (paper Section 5.1:
    "we added 46 cycles ... to each Simurgh call"). *)
let protection_surcharge cm = cm.jmpp_pret_cycles -. cm.call_cycles

let seconds cm cycles = cycles /. cm.freq_hz
let cycles_of_seconds cm s = s *. cm.freq_hz
