(** Per-experiment result capture and JSON export.

    Experiments keep printing their human-readable tables exactly as
    before; the bench helpers mirror every table row in here, and at the
    end of the experiment [finish ~dir] serializes the tables, notes and
    experiment counters plus the merged observability snapshot to
    [BENCH_<id>.json] — the one writer of every BENCH file.  When no
    experiment is active (library/test use) every call is a no-op.

    Schema ("simurgh-bench-v1") — see DESIGN.md "Observability":
    {v
    { "schema": "simurgh-bench-v1",
      "run": "<experiment id>", "scale": <float>,
      "tables": [ { "title": str, "columns": [str...],
                    "rows": [ { "label": str, "values": [num...] } ] } ],
      "notes": [str...],
      "obs": { "counters": { name: num, ... },
               "spans": { "fs_cycles": num, "lock_wait_cycles": num,
                          "flush_cycles": num, "copy_bytes": int },
               "lock_sites": [ { "site": str, "kind": str,
                                 "acquisitions": int, "contended": int,
                                 "uncontended": int, "wait_cycles": num,
                                 "hold_cycles": num } ],
               "op_latency_cycles": { "<fs>/<op>":
                 { "count": int, "mean": num, "min": num, "max": num,
                   "p50": num, "p90": num, "p99": num, "p999": num } } } }
    v} *)

type table = {
  title : string;
  columns : string list;
  mutable rows : (string * float list) list;  (** reversed *)
}

type exp = {
  id : string;
  mutable tables : table list;  (** reversed; head = current *)
  mutable notes : string list;  (** reversed *)
  counters : Metrics.t;
}

let current : exp option ref = ref None

let begin_exp id =
  current :=
    Some { id; tables = []; notes = []; counters = Metrics.create () }

let active () = !current <> None

(** Open a new table; subsequent [row] calls append to it. *)
let table ~title ~columns =
  match !current with
  | Some e -> e.tables <- { title; columns; rows = [] } :: e.tables
  | None -> ()

(** Open a new table only if the current one has a different title. *)
let ensure_table ~title ~columns =
  match !current with
  | Some e -> (
      match e.tables with
      | t :: _ when t.title = title -> ()
      | _ -> table ~title ~columns)
  | None -> ()

let row label values =
  match !current with
  | Some { tables = t :: _; _ } -> t.rows <- (label, values) :: t.rows
  | _ -> ()

let note s =
  match !current with Some e -> e.notes <- s :: e.notes | None -> ()

(** Add [v] to the experiment-level counter [name], exported among the
    obs counters (repeated names sum, like same-named sources). *)
let counter name v =
  match !current with Some e -> Metrics.add e.counters name v | None -> ()

let table_to_json t =
  Json.Obj
    [
      ("title", Json.Str t.title);
      ("columns", Json.List (List.map (fun c -> Json.Str c) t.columns));
      ( "rows",
        Json.List
          (List.rev_map
             (fun (label, values) ->
               Json.Obj
                 [
                   ("label", Json.Str label);
                   ( "values",
                     Json.List (List.map (fun v -> Json.Float v) values) );
                 ])
             t.rows) );
    ]

(* Filenames keep [a-zA-Z0-9._-]; anything else ("tab2+fig8") maps to '_'. *)
let sanitize id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '_')
    id

(** Write BENCH_<id>.json into [dir] and close the experiment.  Returns
    the path written. *)
let finish ~dir ~scale ~obs =
  match !current with
  | None -> None
  | Some e ->
      current := None;
      Metrics.merge_into obs.Run.counters e.counters;
      let path = Filename.concat dir ("BENCH_" ^ sanitize e.id ^ ".json") in
      let doc =
        Json.Obj
          [
            ("schema", Json.Str "simurgh-bench-v1");
            ("run", Json.Str e.id);
            ("scale", Json.Float scale);
            ("tables", Json.List (List.rev_map table_to_json e.tables));
            ( "notes",
              Json.List (List.rev_map (fun n -> Json.Str n) e.notes) );
            ("obs", Run.to_json obs);
          ]
      in
      let oc = open_out path in
      Json.to_channel oc doc;
      close_out oc;
      Some path

(** Close the experiment without writing anything. *)
let discard () = current := None
