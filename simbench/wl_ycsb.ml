(** [ycsb-a]: YCSB workload A over the LSM store — 50% get, 50% update,
    scrambled Zipf 0.99 keys, 1 KiB values, 4 simulated threads, the
    records loaded during setup.  The application and data path
    dominate: WAL appends, SSTable preads, and compactions that create
    and unlink multi-MiB tables. *)

open Simurgh_sim
module Db = Simurgh_kvstore.Db.Make (Probe.Fs)
module Sstable = Simurgh_kvstore.Sstable

let records = 16384
let ops = 16384
let threads = 4
let value_size = 1024
let region_mb = 96
let key_of i = Printf.sprintf "user%020d" i

(* A value is one random 64-bit word spelled out in hex, repeated: unique
   per write, cheap to generate. *)
let make_value rng =
  let w = Printf.sprintf "%016Lx" (Rng.next_int64 rng) in
  String.init value_size (fun i -> w.[i land 15])

let setup ~region ~seed ~tracer =
  let cfg = Fsconfig.build ~region ~tenants:1 in
  let db = Db.open_ (cfg.Fsconfig.tenants.(0), tracer) in
  let shadow = Hashtbl.create records in
  let load_rng = Runner.stream seed 1_000_000 in
  for i = 0 to records - 1 do
    let v = make_value load_rng in
    Db.put db (key_of i) v;
    Hashtbl.replace shadow (key_of i) v
  done;
  let zipf = Zipf.create records in
  let user_bytes = ref 0 in
  let compacted_bytes = ref 0.0 in
  let compacting_cycles = ref 0.0 in
  let compactions0 = (Db.stats db).Simurgh_kvstore.Db.compactions in
  let step ctx =
    let rng = ctx.Machine.thr.Sthread.rng in
    let key = key_of (Zipf.sample_scrambled zipf rng) in
    match
      if Rng.bool rng then begin
        match
          Tracer.span tracer ~ctx Tracer.Kvstore "get" (fun () ->
              Db.get ~ctx db key)
        with
        | got when got = Hashtbl.find_opt shadow key -> Runner.Completed
        | _ -> Runner.Failed ("get " ^ key ^ ": value differs from the shadow")
      end
      else begin
        let v = make_value rng in
        let c0 = (Db.stats db).Simurgh_kvstore.Db.compactions in
        let m0 = Machine.now ctx in
        Tracer.span tracer ~ctx Tracer.Kvstore "put" (fun () ->
            Db.put ~ctx db key v);
        Hashtbl.replace shadow key v;
        user_bytes := !user_bytes + String.length key + String.length v;
        (if (Db.stats db).Simurgh_kvstore.Db.compactions > c0 then
           match db.Db.l1 with
           | m :: _ ->
               compacted_bytes :=
                 !compacted_bytes +. float_of_int m.Sstable.records_len;
               compacting_cycles :=
                 !compacting_cycles +. (Machine.now ctx -. m0)
           | [] -> ());
        Runner.Completed
      end
    with
    | o -> Runner.Done o
    | exception (Simurgh_fs_common.Errno.Err _ as e) ->
        Runner.Done (Runner.errno_outcome ~expected:[] ("op on " ^ key) e)
  in
  let layer_metrics () =
    let s = Db.stats db in
    [
      ( "kvstore.compactions",
        float_of_int (s.Simurgh_kvstore.Db.compactions - compactions0) );
      ( "kvstore.compaction_bytes_per_user_byte",
        if !user_bytes = 0 then 0.0
        else !compacted_bytes /. float_of_int !user_bytes );
      ("kvstore.compacting_put_cycles", !compacting_cycles);
    ]
  in
  (* Acked writes are the records in tables whose flush returned: read
     every live table now, and again on the recovered image. *)
  let durable () =
    let tables = db.Db.l0 @ db.Db.l1 in
    let contents fs meta =
      let out = ref [] in
      (try
         Db.Sst.iter (fs, Tracer.off ()) meta (fun k v -> out := (k, v) :: !out)
       with Simurgh_fs_common.Errno.Err _ | Invalid_argument _ -> ());
      !out
    in
    let before =
      List.map (fun m -> (m, contents cfg.Fsconfig.tenants.(0) m)) tables
    in
    fun fs ->
      List.fold_left
        (fun (acked, lost) (m, recs) ->
          let after = Hashtbl.create 1024 in
          List.iter (fun r -> Hashtbl.replace after r ()) (contents fs m);
          let lost_here =
            List.length (List.filter (fun r -> not (Hashtbl.mem after r)) recs)
          in
          (acked + List.length recs, lost + lost_here))
        (0, 0) before
  in
  let corrupt () = Hashtbl.filter_map_inplace (fun _ v -> Some ("x" ^ v)) shadow in
  {
    Wl.cfg;
    step;
    user_bytes = (fun () -> !user_bytes);
    layer_metrics;
    durable;
    corrupt;
    skip_fsync = ref 0;
  }

let spec =
  {
    Wl.name = "ycsb-a";
    threads;
    ops;
    replay_ops = 4096;
    region_mb;
    setup;
  }
