(** Adversarial crash-image exploration.

    The Strict-mode region already models the persistence rules of real
    NVMM (store -> volatile line, clwb+sfence -> durable).  The classic
    [Region.crash] tests exactly one adversary — "every unpersisted line
    is lost" — but hardware is worse: the cache may evict any dirty line
    {e early}, so at a crash point every unpersisted line is
    {e independently} lost or already durable ([Region.crash_image]).

    One engine turns that into a systematic search, whatever the mounted
    handle is (an {!Fs.t} on one region, a {!Shard.t} over several).  For
    one FS operation it

    + {b discovers} the operation's crash points in a dry run — before
      every NVMM store ([Region.set_store_hook], one counter across all
      regions) and at every labeled Fig. 5 hook ([Fs.set_crash_hook],
      tagged with the region that fired it when there is more than one);
    + {b arms} each point in turn on a fresh mount of a checkpoint of the
      post-setup state, and runs the operation up to it;
    + {b enumerates} eviction subsets of the union of the regions'
      unpersisted lines: exhaustively when at most [max_exhaustive] lines
      are pending ([2^n] images), otherwise drop-all, keep-all and
      [samples]-2 seeded random subsets;
    + for every crash image runs full recovery ({!Recovery.run_all}) and
      then the offline checker ({!Check.run_all}), which must report zero
      violations; an optional [verify] callback additionally inspects a
      fresh mount of the recovered file system.

    {!run} is the single-region entry point, {!run_multi} the sharded
    one, and {!run_reentrant} reuses the arm and eviction steps to crash
    recovery itself.  The returned {!stats} aggregates points, images and
    any violating images (which make the calling test fail with a precise
    reproduction label). *)

open Simurgh_nvmm

exception Crash_now

type stats = {
  crash_points : int;  (** store-granular + labeled hook points *)
  images : int;  (** crash images explored (recoveries performed) *)
  max_pending : int;  (** largest unpersisted-line set at any point *)
  failures : (string * Check.violation list) list;
      (** crash images whose post-recovery check failed, labeled
          ["<point> keep={lines}"] *)
}

type point =
  | Store of int  (** crash before the [n]-th store (1-based) *)
  | Hook of int * string * int
      (** crash at the [n]-th firing of a label on region [i] *)

let point_label ~tagged = function
  | Store n -> Printf.sprintf "store:%d" n
  | Hook (i, l, n) when tagged -> Printf.sprintf "hook:%d:%s#%d" i l n
  | Hook (_, l, n) -> Printf.sprintf "hook:%s#%d" l n

(* Mount a fresh FS handle on [region] as a new "process" would: the
   shared volatile state is discarded (a crash wiped DRAM) and rebuilt
   from NVMM, with the features the superblock records. *)
let fresh_mount region =
  Fs.invalidate_shared region;
  (* a dead process's page-table mappings die with it: if the crashed
     mount had guarded the region (secure mode), the new process starts
     unguarded until it installs its own protection *)
  Region.clear_guard region;
  Fs.mount ~euid:0 region

let default_size = 4 lsl 20

(* -- the volumes explored --------------------------------------------- *)

(** The seed format on [cores] cores. *)
let seed_fs ~cores r = Fs.mkfs ~cores ~euid:0 r

(** The scaled format (striped locks, resolve cache, per-core allocator
    caches), the correctness gate for the striped shared-directory
    paths; [range_locks] adds the byte-range data path (range/append/
    publish protocols), [log_ring] a rename-log ring of that many slots
    (0 = legacy single slot) whose slots concurrent renames of one
    directory claim independently. *)
let scaled_fs ~cores ~range_locks ~log_ring r =
  Fs.mkfs ~cores ~euid:0 ~striped_locks:true ~rcache:true ~alloc_caches:true
    ~range_locks ~log_ring r

(* -- the engine --------------------------------------------------------- *)

(* Dry-run [f] over regions [rs] and return the crash points it passes:
   every NVMM store (one global counter — the op is single-threaded, so
   the interleaving of stores across regions is deterministic), then
   every labeled hook firing in firing order.  [set_hook i] installs a
   label observer for region [i]. *)
let discover rs ~set_hook f =
  let stores = ref 0 and hooks = ref [] in
  let fired = Hashtbl.create 16 in
  Array.iter (fun r -> Region.set_store_hook r (fun () -> incr stores)) rs;
  Array.iteri
    (fun i _ ->
      set_hook i (fun label ->
          let n =
            1 + Option.value ~default:0 (Hashtbl.find_opt fired (i, label))
          in
          Hashtbl.replace fired (i, label) n;
          hooks := Hook (i, label, n) :: !hooks))
    rs;
  ignore (f ());
  Array.iter Region.clear_store_hook rs;
  List.init !stores (fun i -> Store (i + 1)) @ List.rev !hooks

(* Arm [point] and run [f] up to it; a point past [f]'s end (a hook
   miss) just lets [f] finish, and is still explored. *)
let crash_at rs ~set_hook point f =
  let k = ref 0 in
  let tick n =
    incr k;
    if !k = n then raise Crash_now
  in
  (match point with
  | Store n ->
      Array.iter (fun r -> Region.set_store_hook r (fun () -> tick n)) rs
  | Hook (i, label, n) -> set_hook i (fun l -> if l = label then tick n));
  (match f () with _ -> () | exception Crash_now -> ());
  Array.iter Region.clear_store_hook rs

(** [masks ~rng ~max_exhaustive ~samples pending image] calls
    [image keep] once per eviction subset of [pending]: all [2^n] subsets
    when at most [max_exhaustive] lines are pending, otherwise drop-all,
    keep-all and [samples]-2 subsets drawn from [rng]. *)
let masks ~rng ~max_exhaustive ~samples pending image =
  let subset pick =
    let keep = Hashtbl.create 16 in
    Array.iteri
      (fun i ln -> if pick i then Hashtbl.replace keep ln ())
      pending;
    Hashtbl.mem keep
  in
  let n = Array.length pending in
  if n <= max_exhaustive then
    for mask = 0 to (1 lsl n) - 1 do
      image (subset (fun i -> mask land (1 lsl i) <> 0))
    done
  else begin
    image (fun _ -> false);
    image (fun _ -> true);
    for _ = 3 to samples do
      image (subset (fun _ -> Simurgh_sim.Rng.int rng 2 = 1))
    done
  end

(* Explore every eviction image of the crash state the regions [rs] are
   in now: each image is restored from a checkpoint, crashed with its
   keep-set, stripped of its volatile state and guard (a new process),
   and handed to [judge keep_label].  Returns the number of pending
   lines. *)
let images ~rng ~max_exhaustive ~samples rs judge =
  let pending =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun i r ->
              Array.of_list
                (List.map (fun ln -> (i, ln)) (Region.pending_lines r)))
            rs))
  in
  let tagged = Array.length rs > 1 in
  let cps = Array.map Region.checkpoint rs in
  masks ~rng ~max_exhaustive ~samples pending (fun keep ->
      Array.iteri
        (fun i r ->
          Region.restore r cps.(i);
          Region.crash_image r ~keep:(fun ln -> keep (i, ln));
          Fs.invalidate_shared r;
          Region.clear_guard r)
        rs;
      judge (fun () ->
          Array.to_list pending |> List.filter keep
          |> List.map (fun (i, ln) ->
                 if tagged then Printf.sprintf "%d:%d" i ln
                 else string_of_int ln)
          |> String.concat ","
          |> Printf.sprintf "keep={%s}"));
  Array.length pending

(* The crash explorer proper over formatted regions [rs] whose handle is
   [h0]; [mount] re-attaches a fresh handle, [fs_of h i] is region [i]'s
   file system. *)
let explore ~seed ~max_exhaustive ~samples ~verify ~mount ~fs_of ~setup ~op
    rs h0 =
  setup h0;
  (* the operation's own writes must be the only unpersisted lines at
     the crash point; drain everything setup left behind (e.g. zeroed
     directory-block tails that were never clwb'd) *)
  Array.iter Region.persist_all rs;
  let cps = Array.map Region.checkpoint rs in
  let fs_hook h i f = Fs.set_crash_hook (fs_of h i) f in
  let points =
    let h = mount () in
    discover rs ~set_hook:(fs_hook h) (fun () -> op h)
  in
  let tagged = Array.length rs > 1 in
  let rng = Simurgh_sim.Rng.create seed in
  let images_n = ref 0 and max_pending = ref 0 and failures = ref [] in
  let fail label viols = failures := (label, viols) :: !failures in
  List.iter
    (fun point ->
      Array.iteri (fun i r -> Region.restore r cps.(i)) rs;
      let h = mount () in
      crash_at rs ~set_hook:(fs_hook h) point (fun () -> op h);
      let where = point_label ~tagged point in
      let n =
        images ~rng ~max_exhaustive ~samples rs (fun kept ->
            incr images_n;
            match Recovery.run_all rs with
            | exception e ->
                fail
                  (Printf.sprintf "%s: recovery raised %s" where
                     (Printexc.to_string e))
                  []
            | _ -> (
                match Check.run_all rs with
                | [] -> (
                    match verify with
                    | None -> ()
                    | Some v -> (
                        try v (mount ())
                        with e ->
                          fail (where ^ " " ^ kept ())
                            [
                              Check.Structure
                                ("verify: " ^ Printexc.to_string e);
                            ]))
                | viols -> fail (where ^ " " ^ kept ()) (List.map snd viols)))
      in
      max_pending := max !max_pending n)
    points;
  {
    crash_points = List.length points;
    images = !images_n;
    max_pending = !max_pending;
    failures = List.rev !failures;
  }

(** [run ~setup ~op ()] explores one operation on a single Strict
    region formatted by [format] (default: {!seed_fs} on two cores);
    every later mount reads its features from the superblock. *)
let run ?(seed = 7L) ?(max_exhaustive = 10) ?(samples = 64)
    ?(size = default_size) ?(format = seed_fs ~cores:2)
    ?verify ~setup ~op () =
  let region = Region.create ~mode:Region.Strict size in
  explore ~seed ~max_exhaustive ~samples ~verify ~setup ~op [| region |]
    (format region)
    ~mount:(fun () -> fresh_mount region)
    ~fs_of:(fun fs _ -> fs)

(** [run_multi ~regions ~setup ~op ()] is {!run} over a sharded
    namespace: the operation runs against a {!Shard.t} over [regions]
    Strict regions, so an image can lose lines on the source region of a
    cross-region rename while keeping them on the destination, and vice
    versa.  Each region recovers as its own crash domain and must come
    out checker-clean. *)
let run_multi ?(seed = 7L) ?(max_exhaustive = 10) ?(samples = 64)
    ?(size = default_size) ?(regions = 2) ?verify ~setup ~op () =
  let sh0 =
    Shard.mkfs ~mode:Region.Strict ~obs:false ~regions
      ~format:(fun ~shard r -> Fs.mkfs ~euid:0 ~shard r)
      size
  in
  let rs = Shard.regions sh0 in
  explore ~seed ~max_exhaustive ~samples ~verify ~setup ~op rs sh0
    ~mount:(fun () ->
      Array.iter Fs.invalidate_shared rs;
      Shard.mount ~obs:false ~euid:0 rs)
    ~fs_of:Shard.fs_of

(* -- crash-during-recovery re-entrancy -------------------------------- *)

type reentrant_stats = {
  recovery_points : int;  (** mid-recovery crash points explored *)
  reentry_images : int;  (** crash images re-entered through recovery *)
  max_passes : int;
      (** most recovery passes any image needed to reach a media
          fixpoint (2 = idempotent: the second pass only confirms) *)
  reentry_failures : string list;
      (** images that diverged, raised, or failed the offline checker *)
}

(* [k] points strided across [1..n] *)
let strided k n =
  let stride = max 1 (n / max 1 k) in
  List.init k (fun i -> 1 + (i * stride))
  |> List.filter (fun p -> p <= n)
  |> List.sort_uniq compare

(** [run_reentrant ~setup ~op ()] crashes recovery {e itself} and
    re-enters it, on a {!seed_fs} volume.  For a strided sample of the
    operation's store points it takes the dirtiest crash image (every
    unpersisted line dropped), dry-runs recovery on it to discover
    recovery's own crash points —
    strided NVMM stores plus first/middle/last firing of every labeled
    {!Recovery} hook (pending-log resolution, mark repairs, quarantine
    detaches, sweep frees) — then crashes recovery at each, enumerates
    eviction subsets of recovery's unpersisted lines exactly like
    {!run}, and re-runs recovery on every image until the durable media
    digest reaches a fixpoint.  Convergence must take at most 4 passes
    (idempotence predicts 2: repair, then confirm) and every terminal
    image must pass {!Check.run}. *)
let run_reentrant ?(seed = 11L) ?(max_exhaustive = 8) ?(samples = 12)
    ?(size = default_size) ?(op_points = 5) ?(rec_stores = 8) ~setup ~op () =
  let region = Region.create ~mode:Region.Strict size in
  let rs = [| region |] in
  setup (seed_fs ~cores:2 region);
  Region.persist_all region;
  let cp0 = Region.checkpoint region in
  let no_hook _ _ = () in
  let rec_hook _ f = Recovery.set_crash_hook f in
  let recover () = Recovery.run region in
  let stores_of points =
    List.length
      (List.filter (function Store _ -> true | Hook _ -> false) points)
  in

  (* dry-run the op once to count its stores, then stride [op_points]
     crash points across them *)
  let op_crashes =
    let fs = fresh_mount region in
    strided op_points
      (stores_of (discover rs ~set_hook:no_hook (fun () -> op fs)))
  in

  let rng = Simurgh_sim.Rng.create seed in
  let rec_points = ref 0 in
  let images_n = ref 0 in
  let max_passes = ref 0 in
  let failures = ref [] in

  List.iter
    (fun opn ->
      (* 1. crash the op at store [opn]; drop every unpersisted line —
            the dirtiest image recovery can be handed *)
      Region.restore region cp0;
      let fs = fresh_mount region in
      crash_at rs ~set_hook:no_hook (Store opn) (fun () -> op fs);
      Region.crash_image region ~keep:(fun _ -> false);
      let cp_dirty = Region.checkpoint region in

      (* 2. dry-run recovery on the dirty image to discover its own
            crash points: strided stores, first/middle/last firing of
            every label *)
      Fs.invalidate_shared region;
      let found = discover rs ~set_hook:rec_hook recover in
      Recovery.clear_crash_hook ();
      let fires = Hashtbl.create 8 in
      List.iter
        (function Hook (_, l, n) -> Hashtbl.replace fires l n | Store _ -> ())
        found;
      let hook_pts =
        Hashtbl.fold
          (fun label n acc ->
            List.map (fun k -> Hook (0, label, k))
              (List.sort_uniq compare [ 1; (n + 1) / 2; n ])
            @ acc)
          fires []
        |> List.sort compare
      in
      let store_pts =
        List.map (fun n -> Store n) (strided rec_stores (stores_of found))
      in

      (* 3. crash recovery at each point; re-enter on every eviction
            subset of its unpersisted lines; require media fixpoint and
            a clean checker *)
      List.iter
        (fun point ->
          incr rec_points;
          Region.restore region cp_dirty;
          Fs.invalidate_shared region;
          crash_at rs ~set_hook:rec_hook point recover;
          Recovery.clear_crash_hook ();
          let where =
            Printf.sprintf "op-store:%d %s" opn
              (point_label ~tagged:false point)
          in
          let rec fix prev passes =
            if passes > 4 then Error "no media fixpoint after 4 passes"
            else begin
              Fs.invalidate_shared region;
              Region.clear_guard region;
              ignore (Recovery.run region);
              Region.persist_all region;
              let d = Region.media_digest region in
              if prev = Some d then Ok passes else fix (Some d) (passes + 1)
            end
          in
          ignore
            (images ~rng ~max_exhaustive ~samples rs (fun kept ->
                 incr images_n;
                 let label () = where ^ " " ^ kept () in
                 match fix None 1 with
                 | Ok passes -> (
                     if passes > !max_passes then max_passes := passes;
                     match Check.run region with
                     | [] -> ()
                     | v :: _ as viols ->
                         failures :=
                           Printf.sprintf "%s: %d checker violations (%s)"
                             (label ()) (List.length viols)
                             (Format.asprintf "%a" Check.pp_violation v)
                           :: !failures)
                 | Error msg -> failures := (label () ^ ": " ^ msg) :: !failures
                 | exception e ->
                     failures :=
                       (label () ^ ": recovery raised " ^ Printexc.to_string e)
                       :: !failures)))
        (store_pts @ hook_pts))
    op_crashes;
  {
    recovery_points = !rec_points;
    reentry_images = !images_n;
    max_passes = !max_passes;
    reentry_failures = List.rev !failures;
  }
