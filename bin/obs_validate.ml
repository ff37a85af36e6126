(* Validate observability artifacts produced by a traced run: a JSONL
   event trace, its Chrome trace-event companion, and a metrics JSON
   dump. `make ci` runs a small traced exploration and then this tool,
   so a malformed emitter or a silently-vanished event kind fails the
   build rather than the first person who opens a trace.

   Usage:
     obs_validate [--trace FILE] [--chrome FILE] [--metrics FILE]
                  [--require KIND,KIND,...] [--require-counter NAME]
                  [--require-histogram NAME] [--net-check]

   Every trace line must also be canonical: read back through
   Events.event_of_json and re-rendered through event_to_json and
   Json.to_string, it reproduces itself byte for byte. The one
   exception is a Float arg that was +/-infinity: it is written as
   +/-1e308, which reads back as a finite float, so a line whose
   re-rendering differs passes if it matches once +/-1e308 floats are
   mapped back to +/-infinity.

   --require asserts that each KIND appears among the trace's event
   names; --require-counter / --require-histogram that the metrics
   dump has that counter / histogram. --net-check validates the net
   category's lifecycle and causality invariants over the trace: every
   deliver/drop names a previously sent message by both its (src, dst,
   seq) FIFO slot and its cause id mid (with consistent lineage args:
   matching slot, matching send step, delay = step - sent, and the
   adv + forced + fifo attribution telescoping to the delay), per-pair
   delivered seqs strictly increase (no duplicate or reordered FIFO
   slot), inflight spans pair begin/end by mid, no message both
   delivers and drops, and the gst marker is emitted at most once. It
   also checks the logical clock over every line of the trace: [ts] is
   an int that never decreases, and it equals [global] on a
   runtime.step and [step] on a net send/drop/deliver.
   Exit 0 iff every given file parses and every requirement holds. *)

module Json = Setsync_obs.Json
module Events = Setsync_obs.Events

let fail fmt =
  Format.kasprintf
    (fun s ->
      prerr_endline ("obs_validate: " ^ s);
      exit 1)
    fmt

let read_file f =
  match In_channel.with_open_bin f In_channel.input_all with
  | s -> s
  | exception Sys_error e -> fail "%s" e

let parse ~what f s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> fail "%s %s: %s" what f e

let str_field ~what j name =
  match Json.member name j with
  | Some (Json.String s) -> s
  | Some _ -> fail "%s: field %S is not a string in %s" what name (Json.to_string j)
  | None -> fail "%s: missing field %S in %s" what name (Json.to_string j)

let require_num ~what j name =
  match Json.member name j with
  | Some (Json.Int _ | Json.Float _) -> ()
  | Some _ -> fail "%s: field %S is not a number" what name
  | None -> fail "%s: missing field %S in %s" what name (Json.to_string j)

(* The writers clamp +/-infinity to +/-1e308 *)
let rec infinities = function
  | Json.Float f when Float.abs f = 1e308 -> Json.Float (Float.copy_sign Float.infinity f)
  | Json.List xs -> Json.List (List.map infinities xs)
  | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, infinities v)) kvs)
  | j -> j

let check_canonical ~what line j =
  let render j =
    match Events.event_of_json j with
    | Ok e -> Json.to_string (Events.event_to_json e)
    | Error e -> fail "%s: not an event: %s" what e
  in
  let again = render j in
  if again <> line && render (infinities j) <> line then
    fail "%s: not canonical: re-rendered as\n  %s\nfrom\n  %s" what again line

(* returns the set of event names seen *)
let check_trace f =
  let names = Hashtbl.create 16 in
  let lines = String.split_on_char '\n' (read_file f) in
  let count = ref 0 in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then begin
        let what = Printf.sprintf "trace %s line %d" f (i + 1) in
        let j = parse ~what f line in
        require_num ~what j "ts";
        ignore (str_field ~what j "cat");
        check_canonical ~what line j;
        Hashtbl.replace names (str_field ~what j "name") ();
        incr count
      end)
    lines;
  if !count = 0 then fail "trace %s: no events" f;
  Printf.printf "trace %s: %d events, %d kinds\n" f !count (Hashtbl.length names);
  names

let check_chrome f =
  let what = Printf.sprintf "chrome trace %s" f in
  match parse ~what f (read_file f) with
  | Json.List events ->
      if events = [] then fail "%s: empty event array" what;
      List.iter
        (fun e ->
          ignore (str_field ~what e "name");
          ignore (str_field ~what e "ph");
          require_num ~what e "ts";
          require_num ~what e "pid")
        events;
      Printf.printf "chrome trace %s: %d events\n" f (List.length events)
  | _ -> fail "%s: top level is not an array" what

(* returns the sets of counter and histogram names *)
let check_metrics f =
  let what = Printf.sprintf "metrics %s" f in
  let j = parse ~what f (read_file f) in
  let counters = Hashtbl.create 16 in
  let histograms = Hashtbl.create 16 in
  (match Json.member "counters" j with
  | Some (Json.Obj kvs) -> List.iter (fun (k, _) -> Hashtbl.replace counters k ()) kvs
  | Some _ -> fail "%s: \"counters\" is not an object" what
  | None -> fail "%s: missing \"counters\"" what);
  (match Json.member "histograms" j with
  | Some (Json.Obj kvs) -> List.iter (fun (k, _) -> Hashtbl.replace histograms k ()) kvs
  | Some _ -> fail "%s: \"histograms\" is not an object" what
  | None -> fail "%s: missing \"histograms\"" what);
  Printf.printf "metrics %s: %d counters, %d histograms\n" f (Hashtbl.length counters)
    (Hashtbl.length histograms);
  (counters, histograms)

(* Net-category lifecycle and causality invariants. Messages carry two
   identities: the (src, dst, seq) FIFO slot and the per-message cause
   id [mid] that links send -> inflight span -> deliver/drop into the
   happens-before DAG. The trace is replayed in file order, which
   matches emission order; both identities must agree at every edge. *)
let check_net f =
  let what0 = Printf.sprintf "net-check %s" f in
  let int_arg ~what args k =
    match Json.member k args with
    | Some (Json.Int v) -> v
    | Some _ -> fail "%s: arg %S is not an int" what k
    | None -> fail "%s: missing arg %S" what k
  in
  let sent = Hashtbl.create 64 (* (src,dst,seq) -> () *)
  and sent_mid = Hashtbl.create 64 (* mid -> (src,dst,seq,step) *)
  and closed_mid = Hashtbl.create 64 (* mid -> "deliver"|"drop" *)
  and last_slot = Hashtbl.create 16 (* (src,dst) -> last delivered seq *)
  and span = Hashtbl.create 64 (* mid -> `Open | `Closed *) in
  let sends = ref 0
  and delivers = ref 0
  and drops = ref 0
  and gsts = ref 0 in
  let lines = String.split_on_char '\n' (read_file f) in
  let last_ts = ref min_int in
  (* [ts] is the executor's global step: monotone over the file, and
     the step the event names *)
  let check_clock ~what j =
    let ts =
      match Json.member "ts" j with
      | Some (Json.Int ts) -> ts
      | Some _ -> fail "%s: ts is not an int: %s" what (Json.to_string j)
      | None -> fail "%s: missing ts" what
    in
    if ts < !last_ts then fail "%s: ts %d after ts %d" what ts !last_ts;
    last_ts := ts;
    let stamped key =
      match Json.member "args" j with
      | Some args ->
          let v = int_arg ~what args key in
          if v <> ts then fail "%s: ts %d but %s %d: %s" what ts key v (Json.to_string j)
      | None -> fail "%s: no args" what
    in
    match (str_field ~what j "cat", str_field ~what j "name") with
    | "runtime", "step" -> stamped "global"
    | "net", ("send" | "drop" | "deliver") -> stamped "step"
    | _ -> ()
  in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then begin
        let what = Printf.sprintf "%s line %d" what0 (i + 1) in
        let j = parse ~what f line in
        check_clock ~what j;
        if str_field ~what j "cat" = "net" then begin
          let name = str_field ~what j "name" in
          let args () =
            match Json.member "args" j with
            | Some (Json.Obj _ as a) -> a
            | Some _ -> fail "%s: \"args\" is not an object" what
            | None -> fail "%s: %s event has no args" what name
          in
          (* the deliver/drop edge must name a sent mid whose slot and
             send step match its own lineage args *)
          let edge_mid () =
            let a = args () in
            let mid = int_arg ~what a "mid" in
            let k =
              (int_arg ~what a "src", int_arg ~what a "dst", int_arg ~what a "seq")
            in
            (match Hashtbl.find_opt sent_mid mid with
            | None ->
                fail "%s: %s of mid %d with no matching send edge: %s" what name mid
                  (Json.to_string j)
            | Some (s, d, q, sent_step) ->
                if (s, d, q) <> k then
                  fail "%s: %s lineage mismatch: mid %d was sent as (%d,%d,%d): %s" what
                    name mid s d q (Json.to_string j);
                if name = "deliver" && int_arg ~what a "sent" <> sent_step then
                  fail "%s: deliver names sent=%d but mid %d was sent at step %d" what
                    (int_arg ~what a "sent") mid sent_step);
            (match Hashtbl.find_opt closed_mid mid with
            | Some prior ->
                fail "%s: %s of mid %d already closed by %s: %s" what name mid prior
                  (Json.to_string j)
            | None -> Hashtbl.replace closed_mid mid name);
            (a, mid, k)
          in
          match name with
          | "send" ->
              let a = args () in
              let mid = int_arg ~what a "mid" in
              let k =
                (int_arg ~what a "src", int_arg ~what a "dst", int_arg ~what a "seq")
              in
              if Hashtbl.mem sent k then
                fail "%s: duplicate send of message %s" what (Json.to_string j);
              if Hashtbl.mem sent_mid mid then
                fail "%s: duplicate send of mid %d: %s" what mid (Json.to_string j);
              Hashtbl.replace sent k ();
              Hashtbl.replace sent_mid mid
                (int_arg ~what a "src", int_arg ~what a "dst", int_arg ~what a "seq",
                 int_arg ~what a "step");
              incr sends
          | "inflight" -> (
              let mid =
                match Json.member "id" j with
                | Some (Json.Int v) -> v
                | _ -> fail "%s: inflight span without an int \"id\"" what
              in
              match str_field ~what j "ph" with
              | "b" ->
                  if not (Hashtbl.mem sent_mid mid) then
                    fail "%s: inflight begin for unsent mid %d" what mid;
                  if Hashtbl.mem span mid then
                    fail "%s: duplicate inflight begin for mid %d" what mid;
                  Hashtbl.replace span mid `Open
              | "e" -> (
                  match Hashtbl.find_opt span mid with
                  | Some `Open -> Hashtbl.replace span mid `Closed
                  | Some `Closed ->
                      fail "%s: duplicate inflight end for mid %d" what mid
                  | None -> fail "%s: inflight end without begin for mid %d" what mid)
              | ph -> fail "%s: inflight span with phase %S (want b/e)" what ph)
          | "deliver" ->
              let a, _mid, (src, dst, seq) = edge_mid () in
              let step = int_arg ~what a "step"
              and sent_step = int_arg ~what a "sent"
              and delay = int_arg ~what a "delay" in
              if step < sent_step + 1 then
                fail "%s: deliver at step %d <= send step %d: %s" what step sent_step
                  (Json.to_string j);
              if delay <> step - sent_step then
                fail "%s: delay %d <> step %d - sent %d" what delay step sent_step;
              let adv = int_arg ~what a "adv"
              and forced = int_arg ~what a "forced"
              and fifo = int_arg ~what a "fifo" in
              if adv + forced + fifo <> delay then
                fail "%s: attribution %d+%d+%d does not telescope to delay %d: %s" what
                  adv forced fifo delay (Json.to_string j);
              (* FIFO slot discipline: per (src,dst) pair delivered seqs
                 strictly increase — a repeated or reordered slot is a
                 duplicate delivery of the channel position *)
              (match Hashtbl.find_opt last_slot (src, dst) with
              | Some prev when seq <= prev ->
                  fail "%s: FIFO slot violation on (%d,%d): seq %d after %d: %s" what src
                    dst seq prev (Json.to_string j)
              | Some _ | None -> Hashtbl.replace last_slot (src, dst) seq);
              incr delivers
          | "drop" ->
              ignore (edge_mid ());
              incr drops
          | "gst" ->
              incr gsts;
              if !gsts > 1 then fail "%s: gst emitted more than once" what
          | _ -> fail "%s: unknown net event %S" what name
        end
      end)
    lines;
  if !sends = 0 then fail "%s: no send events" what0;
  (* every closed message's inflight span must be closed too *)
  Hashtbl.iter
    (fun mid state ->
      if state = `Open && Hashtbl.mem closed_mid mid then
        fail "%s: inflight span for mid %d never ended" what0 mid)
    span;
  Printf.printf "net-check %s: %d sends, %d delivers, %d drops, %d gst\n" f !sends
    !delivers !drops !gsts

let () =
  let trace = ref None
  and chrome = ref None
  and metrics = ref None
  and net_check = ref false
  and require = ref []
  and require_counters = ref []
  and require_histograms = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--trace" :: f :: rest ->
        trace := Some f;
        parse_args rest
    | "--chrome" :: f :: rest ->
        chrome := Some f;
        parse_args rest
    | "--metrics" :: f :: rest ->
        metrics := Some f;
        parse_args rest
    | "--require" :: ks :: rest ->
        require := !require @ String.split_on_char ',' ks;
        parse_args rest
    | "--require-counter" :: c :: rest ->
        require_counters := !require_counters @ [ c ];
        parse_args rest
    | "--require-histogram" :: h :: rest ->
        require_histograms := !require_histograms @ [ h ];
        parse_args rest
    | "--net-check" :: rest ->
        net_check := true;
        parse_args rest
    | a :: _ -> fail "unknown argument %S" a
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let names = Option.map check_trace !trace in
  (if !net_check then
     match !trace with
     | None -> fail "--net-check given without --trace"
     | Some f -> check_net f);
  Option.iter check_chrome !chrome;
  let metric_names = Option.map check_metrics !metrics in
  let counters = Option.map fst metric_names in
  let histograms = Option.map snd metric_names in
  List.iter
    (fun kind ->
      match names with
      | None -> fail "--require %s given without --trace" kind
      | Some tbl ->
          if not (Hashtbl.mem tbl kind) then fail "trace has no %S events" kind)
    !require;
  List.iter
    (fun c ->
      match counters with
      | None -> fail "--require-counter %s given without --metrics" c
      | Some tbl -> if not (Hashtbl.mem tbl c) then fail "metrics has no counter %S" c)
    !require_counters;
  List.iter
    (fun h ->
      match histograms with
      | None -> fail "--require-histogram %s given without --metrics" h
      | Some tbl ->
          if not (Hashtbl.mem tbl h) then fail "metrics has no histogram %S" h)
    !require_histograms;
  print_endline "obs_validate: ok"
