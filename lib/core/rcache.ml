(** Simurgh-side DRAM resolve cache.

    Kernel file systems resolve shared path prefixes through the dcache
    (Fig. 7e/7f); seed Simurgh resolved every component by scanning
    directory hash rows in NVMM.  This cache short-circuits that scan:
    a hit maps (parent directory head, component) straight to the file
    entry with one DRAM hash probe and {e no} per-dentry lockref
    traffic — which is exactly why the user-level cache scales where the
    kernel one collapses.

    On secure media an entry also carries the packed owner word of the
    file entry it maps to, read at insert time from the line the caller
    has just scanned or stamped.  A hop that hits the cache checks
    permissions against that word instead of re-reading the fentry.  The
    word has exactly the trust of the fentry pointer next to it: both
    live in the shared DRAM only protected code writes, and every store
    to an owner word on media ({!Fs.chmod}) drops the name's entry.

    Consistency is generation-based.  Every directory (keyed by its
    first hash block, the same identity the lock registry uses) has a
    volatile generation number; an entry records the generation seen at
    insert time and is valid only while it still matches.  Name-level
    mutations (unlink, rename, chmod) remove the exact key and leave the
    sibling entries alone; directory-level teardown (rmdir, recovery)
    bumps the generation, which kills every cached child at once — and,
    because generations are never reset, also protects against a freed
    first-block address being reused by a new directory.

    Prefix entries let a resolver reach a path's parent directory in one
    probe (the direct lookup of Tsai et al., SOSP 2015).  Such an entry
    maps a canonical parent path ("a/b/c", no [..], no symlink) to the
    directory's file entry and owner word under a pseudo-directory id
    that stands for one (euid, egid) pair: it certifies that those
    credentials passed the traverse check at every hop of the prefix and
    that the prefix resolved to that directory.  Every pseudo-directory
    shares one prefix generation, bumped by {!drop_prefixes} on any event
    that can change what a directory prefix resolves to or who may
    traverse it (directory removal, directory rename, directory chmod);
    file-level mutations leave it alone.  Prefix entries share the ring,
    the index and the CLOCK with the name entries.

    Capacity is bounded by CLOCK (second-chance) eviction over a ring of
    at most [capacity] slots: a hit sets the entry's reference bit, and
    an insert into a full ring sweeps the hand past referenced slots
    (clearing their bits) to the first unreferenced one.  Removed entries (name
    invalidation, stale-generation reaping, {!clear}) return their slots
    to a free stack that later inserts pop first.

    The table lives in shared DRAM (it travels with {!Fs.mount}'s shared
    state), so an unlink in one process invalidates the entry for all of
    them, matching the paper's shared-DRAM coordination model.  All
    mutations happen inside FS operations, which are atomic in the
    virtual-time engine; the structure itself is host-side and charges
    nothing — the cost model charge for a hit lives at the call site. *)

type t = {
  index : (int * string, int) Hashtbl.t;
      (** (parent first hash block, component) -> ring slot *)
  gens : (int, int) Hashtbl.t;  (** dir head -> generation (sticky) *)
  creds_dirs : (int * int, int) Hashtbl.t;
      (** (euid, egid) -> its negative prefix pseudo-directory *)
  mutable prefix_gen : int;  (** the generation of every pseudo-directory *)
  capacity : int;
  (* the ring, one array per field so an entry costs no block of its
     own; grown on demand up to [capacity] *)
  mutable keys : (int * string) array;  (** [vacant] when unused *)
  mutable fes : int array;  (** file-entry pptr *)
  mutable words : int array;
      (** packed owner word of the fentry (secure media; else 0) *)
  mutable egens : int array;  (** parent generation at insert time *)
  mutable referenced : bool array;  (** CLOCK second-chance bits *)
  mutable used : int;  (** slots ever handed out: [0, used) *)
  mutable free : int list;  (** released slots, reused first *)
  mutable hand : int;  (** CLOCK hand, sweeps only a full ring *)
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable invalidations : int;
  mutable evictions : int;
  mutable prefix_hits : int;
  mutable prefix_misses : int;
  mutable prefix_drops : int;
}

let vacant = (-1, "")
let initial_slots capacity = min capacity 1024

let create ?(capacity = 1 lsl 16) () =
  if capacity < 1 then invalid_arg "Rcache.create: capacity must be >= 1";
  let n = initial_slots capacity in
  {
    index = Hashtbl.create 4096;
    gens = Hashtbl.create 256;
    creds_dirs = Hashtbl.create 8;
    prefix_gen = 0;
    capacity;
    keys = Array.make n vacant;
    fes = Array.make n 0;
    words = Array.make n 0;
    egens = Array.make n 0;
    referenced = Array.make n false;
    used = 0;
    free = [];
    hand = 0;
    hits = 0;
    misses = 0;
    inserts = 0;
    invalidations = 0;
    evictions = 0;
    prefix_hits = 0;
    prefix_misses = 0;
    prefix_drops = 0;
  }

let generation t dir =
  if dir < 0 then t.prefix_gen
  else match Hashtbl.find_opt t.gens dir with Some g -> g | None -> 0

(** Live entries (stale ones not yet reaped included); never above the
    capacity. *)
let size t = Hashtbl.length t.index

let release t s =
  Hashtbl.remove t.index t.keys.(s);
  t.keys.(s) <- vacant;
  t.free <- s :: t.free

(* Second chance: clear referenced bits until the hand reaches an
   unreferenced entry and evict it.  Runs only on a full ring (no free
   slot, [used = capacity]); at most one revolution clears every bit, so
   the sweep ends within [capacity + 1] steps. *)
let rec evict t =
  let s = t.hand in
  t.hand <- (s + 1) mod t.capacity;
  if t.referenced.(s) then begin
    t.referenced.(s) <- false;
    evict t
  end
  else begin
    Hashtbl.remove t.index t.keys.(s);
    t.evictions <- t.evictions + 1;
    s
  end

let grow t =
  let n = min t.capacity (2 * t.used) in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.used;
    b
  in
  t.keys <- extend t.keys vacant;
  t.fes <- extend t.fes 0;
  t.words <- extend t.words 0;
  t.egens <- extend t.egens 0;
  t.referenced <- extend t.referenced false

let take_slot t =
  match t.free with
  | s :: rest ->
      t.free <- rest;
      s
  | [] when t.used < t.capacity ->
      if t.used = Array.length t.keys then grow t;
      t.used <- t.used + 1;
      t.used - 1
  | [] -> evict t

(** [Some (fe, word)]: the file entry [name] maps to under [dir] and its
    owner word. *)
let lookup t ~dir name =
  match Hashtbl.find_opt t.index (dir, name) with
  | Some s when t.egens.(s) = generation t dir ->
      t.referenced.(s) <- true;
      t.hits <- t.hits + 1;
      Some (t.fes.(s), t.words.(s))
  | Some s ->
      (* stale generation: reap lazily *)
      release t s;
      t.misses <- t.misses + 1;
      None
  | None ->
      t.misses <- t.misses + 1;
      None

(** Map [name] under [dir] to file entry [fe] whose owner word is
    [word]; replaces an existing entry for the key in its slot. *)
let insert t ~dir name ~word fe =
  t.inserts <- t.inserts + 1;
  let key = (dir, name) in
  let s =
    match Hashtbl.find_opt t.index key with
    | Some s -> s
    | None ->
        let s = take_slot t in
        t.keys.(s) <- key;
        Hashtbl.replace t.index key s;
        s
  in
  t.fes.(s) <- fe;
  t.words.(s) <- word;
  t.egens.(s) <- generation t dir;
  t.referenced.(s) <- false

(** Name-level invalidation: the entry for [name] under [dir] is gone
    (unlink, rename source, replaced rename destination) or its owner
    word changed (chmod). *)
let invalidate t ~dir name =
  match Hashtbl.find_opt t.index (dir, name) with
  | Some s ->
      release t s;
      t.invalidations <- t.invalidations + 1
  | None -> ()

(* --- prefix entries --- *)

let creds_dir t ~euid ~egid =
  match Hashtbl.find_opt t.creds_dirs (euid, egid) with
  | Some d -> d
  | None ->
      let d = -1 - Hashtbl.length t.creds_dirs in
      Hashtbl.replace t.creds_dirs (euid, egid) d;
      d

(** [Some (fe, word)]: the directory the canonical parent path [prefix]
    resolves to for these credentials, and its owner word. *)
let lookup_prefix t ~euid ~egid prefix =
  let r = lookup t ~dir:(creds_dir t ~euid ~egid) prefix in
  (match r with
  | Some _ -> t.prefix_hits <- t.prefix_hits + 1
  | None -> t.prefix_misses <- t.prefix_misses + 1);
  r

(** Record that [prefix] resolved to directory [fe] (owner word [word])
    for these credentials.  The walk and this insert hold no preemption
    point, so a walk that saw the namespace before a directory event
    inserts before that event's {!drop_prefixes}. *)
let insert_prefix t ~euid ~egid prefix ~word fe =
  insert t ~dir:(creds_dir t ~euid ~egid) prefix ~word fe

(** Every prefix entry dies: a directory was removed, renamed or
    chmod-ed.  Called once the event is visible on media. *)
let drop_prefixes t =
  t.prefix_gen <- t.prefix_gen + 1;
  t.prefix_drops <- t.prefix_drops + 1

(** Directory-level invalidation: every cached child of [dir] dies, and
    so does every prefix entry (one may end in [dir]).  Generations are
    bumped, never reset, so a later directory reusing the same
    first-block address can never validate old entries. *)
let invalidate_dir t dir =
  Hashtbl.replace t.gens dir (generation t dir + 1);
  t.invalidations <- t.invalidations + 1;
  drop_prefixes t

let clear t =
  (* volatile state rebuild (recovery): entries vanish, generations stay
     sticky so nothing stale can ever revalidate *)
  Hashtbl.reset t.index;
  Array.fill t.keys 0 t.used vacant;
  t.used <- 0;
  t.free <- [];
  t.hand <- 0

type stats = {
  hits : int;
  misses : int;
  inserts : int;
  invalidations : int;
  evictions : int;
  prefix_hits : int;
  prefix_misses : int;
  prefix_drops : int;
}

let stats (t : t) : stats =
  {
    hits = t.hits;
    misses = t.misses;
    inserts = t.inserts;
    invalidations = t.invalidations;
    evictions = t.evictions;
    prefix_hits = t.prefix_hits;
    prefix_misses = t.prefix_misses;
    prefix_drops = t.prefix_drops;
  }
