(** Fig. 7: the ten FxMark microbenchmarks across all file systems and
    1-10 threads.  Metadata benchmarks report Kops/s; data benchmarks
    report both Kops/s and GB/s. *)

open Simurgh_workloads

let metadata_benches =
  [
    ("fig7a", Fxmark.Create_private, 2000);
    ("fig7b", Fxmark.Create_shared, 2000);
    ("fig7c", Fxmark.Delete_private, 2000);
    ("fig7d", Fxmark.Rename_shared, 2000);
    ("fig7e", Fxmark.Resolve_private, 4000);
    ("fig7f", Fxmark.Resolve_shared, 4000);
  ]

let data_benches =
  [
    ("fig7g", Fxmark.Append_private, 1500);
    ("fig7h", Fxmark.Fallocate_private, 64);
    ("fig7i", Fxmark.Read_shared { cache_hot = false }, 3000);
    ("fig7j", Fxmark.Read_private { cache_hot = false }, 3000);
    ("fig7k", Fxmark.Overwrite_shared, 3000);
    ("fig7l", Fxmark.Write_private, 3000);
  ]

let targets_for bench =
  match bench with
  | Fxmark.Overwrite_shared ->
      (* include the relaxed variant the paper plots in Fig. 7k *)
      Targets.all () @ [ Targets.simurgh ~config:Relaxed () ]
  | Fxmark.Write_private ->
      (* the paper could not run SplitFS on this benchmark *)
      List.filter (fun t -> t.Targets.name <> "SplitFS") (Targets.all ())
  | _ -> Targets.all ()

(* fallocate maps 4 MiB per op per thread: give it a region that fits *)
let region_mb_for bench ops threads =
  match bench with
  | Fxmark.Fallocate_private ->
      (* generous headroom so segment exhaustion rescans do not distort
         the base throughput *)
      Some (max 1024 ((ops * 4 * threads * 3 / 2) + 512))
  | _ -> None

let run_bench ~scale (id, bench, base_ops) =
  let ops =
    match bench with
    | Fxmark.Fallocate_private -> min 64 (Util.scaled ~scale base_ops)
    | _ -> Util.scaled ~scale base_ops
  in
  Util.header
    (Printf.sprintf "%s: %s (Kops/s; %d ops/thread)" id
       (Fxmark.bench_name bench) ops);
  Util.print_thread_header Util.thread_counts;
  let is_data = match bench with
    | Fxmark.Append_private | Fxmark.Fallocate_private | Fxmark.Read_shared _
    | Fxmark.Read_private _ | Fxmark.Overwrite_shared | Fxmark.Write_private ->
        true
    | _ -> false
  in
  List.iter
    (fun (t : Targets.target) ->
      let results =
        List.map
          (fun threads ->
            let region_mb = region_mb_for bench ops threads in
            t.Targets.run_fx ?region_mb ~threads ~ops bench)
          Util.thread_counts
      in
      Util.series t.Targets.name " %9.0f"
        (List.map (fun (r : Fxmark.result) -> Util.kops r.Fxmark.throughput)
           results);
      if is_data then
        Util.series (t.Targets.name ^ " GB/s") " %9.2f"
          (List.map (fun (r : Fxmark.result) -> r.Fxmark.bandwidth /. 1e9)
             results))
    (targets_for bench)

let run_one ~scale id =
  match
    List.find_opt (fun (i, _, _) -> i = id) (metadata_benches @ data_benches)
  with
  | Some b -> run_bench ~scale b
  | None -> Printf.printf "unknown fig7 id: %s\n" id

let run ~scale =
  List.iter (run_bench ~scale) metadata_benches;
  List.iter (run_bench ~scale) data_benches
