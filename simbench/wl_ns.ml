(** [ns-resolve]: namespace lookups.  Eight simulated threads split over
    two tenant uids; each request resolves a depth-5 path in a namespace
    of 160k files, more than the resolve cache's 65,536 entries.  The
    mix is 70% [stat], 20% [openf]+[close] and 10% same-directory rename
    round-trips (two engine steps, so other threads can observe the
    renamed-away name and must get ENOENT).  No payload moves. *)

open Simurgh_sim
open Simurgh_fs_common
module P = Probe.Fs

let tenants = 2
let threads = 8
let ops = 196608
let region_mb = 64

(* per tenant: /tU/aA/bB/cC/fN with 4 x 8 x 10 directories of 250 files *)
let fanout = [| 4; 8; 10; 250 |]
let files_per_tenant = Array.fold_left ( * ) 1 fanout

let path_of u j =
  Printf.sprintf "/t%d/a%d/b%d/c%d/f%03d" u (j / 20000) (j / 2500 mod 8)
    (j / 250 mod 10) (j mod 250)

let populate (fs : Simurgh_core.Fs.t) u =
  let module F = Simurgh_core.Fs in
  F.mkdir fs (Printf.sprintf "/t%d" u);
  for a = 0 to fanout.(0) - 1 do
    F.mkdir fs (Printf.sprintf "/t%d/a%d" u a);
    for b = 0 to fanout.(1) - 1 do
      F.mkdir fs (Printf.sprintf "/t%d/a%d/b%d" u a b);
      for c = 0 to fanout.(2) - 1 do
        F.mkdir fs (Printf.sprintf "/t%d/a%d/b%d/c%d" u a b c)
      done
    done
  done;
  for j = 0 to files_per_tenant - 1 do
    F.create_file fs (path_of u j)
  done

let expect_file = (Types.File, 0)

let setup ~region ~seed ~tracer =
  ignore seed;
  let cfg = Fsconfig.build ~region ~tenants in
  let shadow = Hashtbl.create (tenants * files_per_tenant) in
  for u = 0 to tenants - 1 do
    populate cfg.Fsconfig.tenants.(u) u;
    for j = 0 to files_per_tenant - 1 do
      Hashtbl.replace shadow (path_of u j) expect_file
    done
  done;
  (* names a rename took away or brought in: each must end in the state
     the shadow holds for it *)
  let touched = Hashtbl.create 1024 in
  let pending = Array.make threads None in
  let move src dst =
    Hashtbl.remove shadow src;
    Hashtbl.replace shadow dst expect_file;
    Hashtbl.replace touched src ();
    Hashtbl.replace touched dst ()
  in
  let step ctx =
    let thr = ctx.Machine.thr in
    let tid = thr.Sthread.tid in
    let u = tid * tenants / threads in
    let fs = (cfg.Fsconfig.tenants.(u), tracer) in
    match pending.(tid) with
    | Some (src, dst) -> (
        (* second half of a round-trip: only this thread holds [dst] *)
        pending.(tid) <- None;
        match P.rename ~ctx fs dst src with
        | () ->
            move dst src;
            Runner.Done Runner.Completed
        | exception (Errno.Err _ as e) ->
            Runner.Done (Runner.errno_outcome ~expected:[] ("rename " ^ dst) e))
    | None -> (
        let rng = thr.Sthread.rng in
        let r = Rng.int rng 100 in
        let path = path_of u (Rng.int rng files_per_tenant) in
        let present = Hashtbl.find_opt shadow path in
        let expected = if present = None then [ Errno.ENOENT ] else [] in
        (* the call succeeded: right only if the shadow has the name *)
        let succeeded what =
          if present <> None then Runner.Completed
          else Runner.Failed (what ^ " " ^ path ^ ": succeeded on a missing name")
        in
        try
          if r < 70 then begin
            let st = P.stat ~ctx fs path in
            Runner.Done
              (if present = None then succeeded "stat"
               else if Some (st.Types.kind, st.Types.size) = present then
                 Runner.Completed
               else Runner.Failed ("stat " ^ path ^ ": differs from the shadow"))
          end
          else if r < 90 then begin
            let fd = P.openf ~ctx fs Types.rdonly path in
            P.close ~ctx fs fd;
            Runner.Done (succeeded "openf")
          end
          else begin
            let dst = path ^ ".mv" in
            P.rename ~ctx fs path dst;
            if present = None then Runner.Done (succeeded "rename")
            else begin
              move path dst;
              pending.(tid) <- Some (path, dst);
              Runner.Continue
            end
          end
        with Errno.Err _ as e ->
          Runner.Done (Runner.errno_outcome ~expected path e))
  in
  let durable () fs =
    let acked = ref 0 and lost = ref 0 in
    let check path want =
      incr acked;
      let got =
        match Simurgh_core.Fs.stat fs path with
        | st -> Some (st.Types.kind, st.Types.size)
        | exception Errno.Err (Errno.ENOENT, _) -> None
      in
      if got <> want then incr lost
    in
    Hashtbl.iter (fun path want -> check path (Some want)) shadow;
    Hashtbl.iter
      (fun path () -> if not (Hashtbl.mem shadow path) then check path None)
      touched;
    (!acked, !lost)
  in
  let corrupt () =
    Hashtbl.filter_map_inplace (fun _ (k, n) -> Some (k, n + 1)) shadow
  in
  {
    Wl.cfg;
    step;
    user_bytes = (fun () -> 0);
    layer_metrics = (fun () -> []);
    durable;
    corrupt;
    skip_fsync = ref 0;
  }

let spec =
  {
    Wl.name = "ns-resolve";
    threads;
    ops;
    replay_ops = 8192;
    region_mb;
    setup;
  }
