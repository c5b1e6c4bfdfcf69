(** Adversarial crash-image exploration.

    The Strict-mode region already models the persistence rules of real
    NVMM (store -> volatile line, clwb+sfence -> durable).  The classic
    [Region.crash] tests exactly one adversary — "every unpersisted line
    is lost" — but hardware is worse: the cache may evict any dirty line
    {e early}, so at a crash point every unpersisted line is
    {e independently} lost or already durable ([Region.crash_image]).

    [run] turns that into a systematic search.  For one FS operation it

    + replays the operation once per {e crash point} — before every
      NVMM store ([Region.set_store_hook]) and at every labeled Fig. 5
      hook ([Fs.set_crash_hook]) — restoring a checkpoint of the
      post-setup state each time;
    + at each crash point enumerates eviction subsets of the unpersisted
      lines: exhaustively when at most [max_exhaustive] lines are
      pending ([2^n] images), otherwise drop-all, keep-all and
      [samples]-2 seeded random subsets;
    + for every crash image runs full recovery ({!Recovery.run}) and
      then the offline checker ({!Check.run}), which must report zero
      violations; an optional [verify] callback can additionally inspect
      the recovered file system.

    The returned {!stats} aggregates points, images and any violating
    images (which make the calling test fail with a precise
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

type point = Store of int  (** crash before the [n]-th store (1-based) *)
           | Hook of string * int  (** crash at n-th firing of a label *)

let point_label = function
  | Store n -> Printf.sprintf "store:%d" n
  | Hook (l, n) -> Printf.sprintf "hook:%s#%d" l n

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

let run ?(seed = 7L) ?(max_exhaustive = 10) ?(samples = 64)
    ?(size = default_size) ?(scaled = false) ?(range = false) ?(ring = 0)
    ?(secure = false) ?verify ~setup ~op () =
  let region = Region.create ~mode:Region.Strict size in
  let fs0 =
    Fs.mkfs ~cores:2 ~euid:0 ~striped_locks:scaled ~rcache:scaled
      ~alloc_caches:scaled ~range_locks:range ~log_ring:ring ~secure region
  in
  setup fs0;
  (* the operation's own writes must be the only unpersisted lines at
     the crash point; drain everything setup left behind (e.g. zeroed
     directory-block tails that were never clwb'd) *)
  Region.persist_all region;
  let cp0 = Region.checkpoint region in

  (* Pass 1: dry-run the op to discover its crash points. *)
  let stores = ref 0 in
  let hooks = ref [] (* (label, occurrence) in firing order, reversed *) in
  let hook_count = Hashtbl.create 16 in
  let fs = fresh_mount region in
  Region.set_store_hook region (fun () -> incr stores);
  Fs.set_crash_hook fs (fun label ->
      let n = (try Hashtbl.find hook_count label with Not_found -> 0) + 1 in
      Hashtbl.replace hook_count label n;
      hooks := (label, n) :: !hooks);
  op fs;
  Region.clear_store_hook region;
  let points =
    List.init !stores (fun i -> Store (i + 1))
    @ List.rev_map (fun (l, n) -> Hook (l, n)) !hooks
  in

  let rng = Simurgh_sim.Rng.create seed in
  let images = ref 0 in
  let max_pending = ref 0 in
  let failures = ref [] in

  List.iter
    (fun point ->
      (* restore the post-setup state and run the op up to [point] *)
      Region.restore region cp0;
      let fs = fresh_mount region in
      (match point with
      | Store n ->
          let k = ref 0 in
          Region.set_store_hook region (fun () ->
              incr k;
              if !k = n then raise Crash_now)
      | Hook (label, n) ->
          let k = ref 0 in
          Fs.set_crash_hook fs (fun l ->
              if l = label then begin
                incr k;
                if !k = n then raise Crash_now
              end));
      (match op fs with
      | () -> () (* point past the op's end (hook miss): still explored *)
      | exception Crash_now -> ());
      Region.clear_store_hook region;

      let pending = Array.of_list (Region.pending_lines region) in
      let n = Array.length pending in
      if n > !max_pending then max_pending := n;
      let cp_crash = Region.checkpoint region in
      let explore_mask keep_of =
        incr images;
        Region.restore region cp_crash;
        Region.crash_image region ~keep:keep_of;
        Fs.invalidate_shared region;
        Region.clear_guard region;
        (match Recovery.run region with
        | _layout, _report -> (
            match Check.run region with
            | [] -> (
                match verify with
                | None -> ()
                | Some v -> (
                    try v (fresh_mount region)
                    with e ->
                      let kept =
                        Array.to_list pending
                        |> List.filter keep_of
                        |> List.map string_of_int
                        |> String.concat ","
                      in
                      failures :=
                        ( Printf.sprintf "%s keep={%s}" (point_label point)
                            kept,
                          [
                            Check.Structure
                              ("verify: " ^ Printexc.to_string e);
                          ] )
                        :: !failures))
            | viols ->
                let kept =
                  Array.to_list pending
                  |> List.filter keep_of
                  |> List.map string_of_int
                  |> String.concat ","
                in
                failures :=
                  (Printf.sprintf "%s keep={%s}" (point_label point) kept,
                   viols)
                  :: !failures)
        | exception e ->
            failures :=
              ( Printf.sprintf "%s: recovery raised %s" (point_label point)
                  (Printexc.to_string e),
                [] )
              :: !failures)
      in
      let keep_of_mask mask =
        let keep = Hashtbl.create 8 in
        Array.iteri
          (fun i ln -> if mask land (1 lsl i) <> 0 then Hashtbl.replace keep ln ())
          pending;
        fun ln -> Hashtbl.mem keep ln
      in
      if n <= max_exhaustive then
        for mask = 0 to (1 lsl n) - 1 do
          explore_mask (keep_of_mask mask)
        done
      else begin
        (* sampled: the two extreme images plus seeded random subsets *)
        explore_mask (fun _ -> false);
        explore_mask (fun _ -> true);
        for _ = 3 to samples do
          let keep = Hashtbl.create 16 in
          Array.iter
            (fun ln ->
              if Simurgh_sim.Rng.int rng 2 = 1 then Hashtbl.replace keep ln ())
            pending;
          explore_mask (fun ln -> Hashtbl.mem keep ln)
        done
      end)
    points;
  {
    crash_points = List.length points;
    images = !images;
    max_pending = !max_pending;
    failures = List.rev !failures;
  }

(* -- multi-region (sharded) exploration -------------------------------- *)

(** [run_multi ~regions ~setup ~op ()] is {!run} lifted to a sharded
    namespace: the operation runs against a {!Shard.t} over [regions]
    Strict regions, crash points are discovered across {e all} regions
    (stores are counted globally; labeled hooks are tagged with the
    region that fired them), and at every point the eviction subsets
    range over the union of every region's unpersisted lines — so an
    image can lose lines on the source region of a cross-region rename
    while keeping them on the destination, and vice versa.  Recovery is
    {!Recovery.run_all} (each region its own crash domain) and the
    oracle is {!Check.run_all} reporting zero violations on every
    region. *)
let run_multi ?(seed = 7L) ?(max_exhaustive = 10) ?(samples = 64)
    ?(size = default_size) ?(regions = 2) ?verify ~setup ~op () =
  let sh0 =
    Shard.mkfs ~mode:Region.Strict ~obs:false ~regions
      ~format:(fun ~shard r -> Fs.mkfs ~euid:0 ~shard r)
      size
  in
  let rs = Shard.regions sh0 in
  setup sh0;
  Array.iter Region.persist_all rs;
  let cps = Array.map Region.checkpoint rs in
  let fresh () =
    Array.iter Fs.invalidate_shared rs;
    Shard.mount ~obs:false ~euid:0 rs
  in

  (* Pass 1: dry-run to discover crash points across every region.  The
     op is single-threaded, so the interleaving of stores across regions
     is deterministic and a global store counter is a stable address. *)
  let stores = ref 0 in
  let hooks = ref [] in
  let hook_count = Hashtbl.create 16 in
  let sh = fresh () in
  Array.iter
    (fun r -> Region.set_store_hook r (fun () -> incr stores))
    rs;
  for i = 0 to regions - 1 do
    Fs.set_crash_hook (Shard.fs_of sh i) (fun label ->
        let l = Printf.sprintf "%d:%s" i label in
        let n = (try Hashtbl.find hook_count l with Not_found -> 0) + 1 in
        Hashtbl.replace hook_count l n;
        hooks := (l, n) :: !hooks)
  done;
  op sh;
  Array.iter Region.clear_store_hook rs;
  let points =
    List.init !stores (fun i -> Store (i + 1))
    @ List.rev_map (fun (l, n) -> Hook (l, n)) !hooks
  in

  (* a tagged hook label is "<region>:<original label>" *)
  let split_tag l =
    match String.index_opt l ':' with
    | Some k ->
        (int_of_string (String.sub l 0 k),
         String.sub l (k + 1) (String.length l - k - 1))
    | None -> (0, l)
  in

  let rng = Simurgh_sim.Rng.create seed in
  let images = ref 0 in
  let max_pending = ref 0 in
  let failures = ref [] in

  List.iter
    (fun point ->
      Array.iteri (fun i r -> Region.restore r cps.(i)) rs;
      let sh = fresh () in
      (match point with
      | Store n ->
          let k = ref 0 in
          Array.iter
            (fun r ->
              Region.set_store_hook r (fun () ->
                  incr k;
                  if !k = n then raise Crash_now))
            rs
      | Hook (tagged, n) ->
          let ri, label = split_tag tagged in
          let k = ref 0 in
          Fs.set_crash_hook (Shard.fs_of sh ri) (fun l ->
              if l = label then begin
                incr k;
                if !k = n then raise Crash_now
              end));
      (match op sh with
      | () -> ()
      | exception Crash_now -> ());
      Array.iter Region.clear_store_hook rs;

      (* unpersisted lines across every region, tagged by region *)
      let pending =
        Array.of_list
          (List.concat
             (List.mapi
                (fun i r ->
                  List.map (fun ln -> (i, ln)) (Region.pending_lines r))
                (Array.to_list rs)))
      in
      let n = Array.length pending in
      if n > !max_pending then max_pending := n;
      let cp_crash = Array.map Region.checkpoint rs in
      let label_of keep_of =
        Printf.sprintf "%s keep={%s}" (point_label point)
          (Array.to_list pending |> List.filter keep_of
          |> List.map (fun (i, ln) -> Printf.sprintf "%d:%d" i ln)
          |> String.concat ",")
      in
      let explore_mask keep_of =
        incr images;
        Array.iteri (fun i r -> Region.restore r cp_crash.(i)) rs;
        Array.iteri
          (fun i r ->
            Region.crash_image r ~keep:(fun ln -> keep_of (i, ln));
            Fs.invalidate_shared r;
            Region.clear_guard r)
          rs;
        match Recovery.run_all rs with
        | _ -> (
            match Check.run_all rs with
            | [] -> (
                match verify with
                | None -> ()
                | Some v -> (
                    try v (fresh ())
                    with e ->
                      failures :=
                        ( label_of keep_of,
                          [
                            Check.Structure
                              ("verify: " ^ Printexc.to_string e);
                          ] )
                        :: !failures))
            | viols ->
                failures :=
                  (label_of keep_of, List.map snd viols) :: !failures)
        | exception e ->
            failures :=
              ( Printf.sprintf "%s: recovery raised %s" (point_label point)
                  (Printexc.to_string e),
                [] )
              :: !failures
      in
      let keep_of_mask mask =
        let keep = Hashtbl.create 8 in
        Array.iteri
          (fun i tln ->
            if mask land (1 lsl i) <> 0 then Hashtbl.replace keep tln ())
          pending;
        fun tln -> Hashtbl.mem keep tln
      in
      if n <= max_exhaustive then
        for mask = 0 to (1 lsl n) - 1 do
          explore_mask (keep_of_mask mask)
        done
      else begin
        explore_mask (fun _ -> false);
        explore_mask (fun _ -> true);
        for _ = 3 to samples do
          let keep = Hashtbl.create 16 in
          Array.iter
            (fun tln ->
              if Simurgh_sim.Rng.int rng 2 = 1 then Hashtbl.replace keep tln ())
            pending;
          explore_mask (fun tln -> Hashtbl.mem keep tln)
        done
      end)
    points;
  {
    crash_points = List.length points;
    images = !images;
    max_pending = !max_pending;
    failures = List.rev !failures;
  }

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

(** [run_reentrant ~setup ~op ()] crashes recovery {e itself} and
    re-enters it.  For a strided sample of the operation's store points
    it takes the dirtiest crash image (every unpersisted line dropped),
    dry-runs recovery on it to discover recovery's own crash points —
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
  let fs0 = Fs.mkfs ~cores:2 ~euid:0 region in
  setup fs0;
  Region.persist_all region;
  let cp0 = Region.checkpoint region in

  (* dry-run the op once to count its stores, then stride [op_points]
     crash points across them *)
  let stores = ref 0 in
  let fs = fresh_mount region in
  Region.set_store_hook region (fun () -> incr stores);
  op fs;
  Region.clear_store_hook region;
  let stride = max 1 (!stores / max 1 op_points) in
  let op_crashes =
    List.init op_points (fun i -> 1 + (i * stride))
    |> List.filter (fun p -> p <= !stores)
    |> List.sort_uniq compare
  in

  let rng = Simurgh_sim.Rng.create seed in
  let rec_points = ref 0 in
  let images = ref 0 in
  let max_passes = ref 0 in
  let failures = ref [] in

  List.iter
    (fun opn ->
      (* 1. crash the op at store [opn]; drop every unpersisted line —
            the dirtiest image recovery can be handed *)
      Region.restore region cp0;
      let fs = fresh_mount region in
      let k = ref 0 in
      Region.set_store_hook region (fun () ->
          incr k;
          if !k = opn then raise Crash_now);
      (match op fs with () -> () | exception Crash_now -> ());
      Region.clear_store_hook region;
      Region.crash_image region ~keep:(fun _ -> false);
      let cp_dirty = Region.checkpoint region in

      (* 2. dry-run recovery on the dirty image to discover its own
            crash points *)
      let rstores = ref 0 in
      let hook_fires = Hashtbl.create 8 in
      Fs.invalidate_shared region;
      Region.set_store_hook region (fun () -> incr rstores);
      Recovery.set_crash_hook (fun label ->
          Hashtbl.replace hook_fires label
            (1 + try Hashtbl.find hook_fires label with Not_found -> 0));
      ignore (Recovery.run region);
      Recovery.clear_crash_hook ();
      Region.clear_store_hook region;
      let store_pts =
        let st = max 1 (!rstores / max 1 rec_stores) in
        List.init rec_stores (fun i -> 1 + (i * st))
        |> List.filter (fun p -> p <= !rstores)
        |> List.sort_uniq compare
        |> List.map (fun n -> Store n)
      in
      let hook_pts =
        Hashtbl.fold
          (fun label fires acc ->
            [ 1; (fires + 1) / 2; fires ]
            |> List.sort_uniq compare
            |> List.map (fun n -> Hook (label, n))
            |> fun l -> l @ acc)
          hook_fires []
        |> List.sort compare
      in

      (* 3. crash recovery at each point; re-enter on every eviction
            subset of its unpersisted lines; require media fixpoint and
            a clean checker *)
      List.iter
        (fun point ->
          incr rec_points;
          Region.restore region cp_dirty;
          Fs.invalidate_shared region;
          (match point with
          | Store n ->
              let k = ref 0 in
              Region.set_store_hook region (fun () ->
                  incr k;
                  if !k = n then raise Crash_now)
          | Hook (label, n) ->
              let k = ref 0 in
              Recovery.set_crash_hook (fun l ->
                  if l = label then begin
                    incr k;
                    if !k = n then raise Crash_now
                  end));
          (match Recovery.run region with
          | _ -> () (* point past recovery's end: still explored *)
          | exception Crash_now -> ());
          Region.clear_store_hook region;
          Recovery.clear_crash_hook ();

          let pending = Array.of_list (Region.pending_lines region) in
          let n = Array.length pending in
          let cp_crash = Region.checkpoint region in
          let explore_mask keep_of =
            incr images;
            Region.restore region cp_crash;
            Region.crash_image region ~keep:keep_of;
            let label () =
              Printf.sprintf "op-store:%d %s keep={%s}" opn
                (point_label point)
                (Array.to_list pending |> List.filter keep_of
                |> List.map string_of_int |> String.concat ",")
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
                  :: !failures
          in
          let keep_of_mask mask =
            let keep = Hashtbl.create 8 in
            Array.iteri
              (fun i ln ->
                if mask land (1 lsl i) <> 0 then Hashtbl.replace keep ln ())
              pending;
            fun ln -> Hashtbl.mem keep ln
          in
          if n <= max_exhaustive then
            for mask = 0 to (1 lsl n) - 1 do
              explore_mask (keep_of_mask mask)
            done
          else begin
            explore_mask (fun _ -> false);
            explore_mask (fun _ -> true);
            for _ = 3 to samples do
              let keep = Hashtbl.create 16 in
              Array.iter
                (fun ln ->
                  if Simurgh_sim.Rng.int rng 2 = 1 then
                    Hashtbl.replace keep ln ())
                pending;
              explore_mask (fun ln -> Hashtbl.mem keep ln)
            done
          end)
        (store_pts @ hook_pts))
    op_crashes;
  {
    recovery_points = !rec_points;
    reentry_images = !images;
    max_passes = !max_passes;
    reentry_failures = List.rev !failures;
  }
