(* Metrics registry: counters, gauges, histograms with fixed log-scale
   (power-of-two) buckets.

   Every metric is one cell, and a hot-path update is one
   unsynchronized read-modify-write of it — no atomics, no locks. The
   registry is updated from one domain: a parallel exploration counts
   in its workers' own meters and records them after the join. *)

let bucket_count = 64

(* Bucket 0 holds values < 1 (including zero and negatives); bucket i
   (1 <= i < 63) holds [2^(i-1), 2^i); bucket 63 is the overflow.
   [Float.frexp] decomposes v = m * 2^e with m in [0.5, 1), so e is
   exactly the bucket index — no logarithm rounding at the bucket
   boundaries. *)
let bucket_of v =
  if not (v >= 1.0) then 0
  else
    let _, e = Float.frexp v in
    if e >= bucket_count then bucket_count - 1 else e

let bucket_lower_bound i =
  if i <= 0 then neg_infinity else Float.ldexp 1.0 (i - 1)

let bucket_upper_bound i =
  if i <= 0 then 1.0
  else if i >= bucket_count - 1 then infinity
  else Float.ldexp 1.0 i

type counter = { mutable c_value : int }

type gauge = { g_name : string; mutable g_value : float; mutable g_set : bool }

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  mu : Mutex.t;  (* guards registration only, never updates *)
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list;  (* registration order, newest first *)
}

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 32; order = [] }

let intern t name make get =
  Mutex.lock t.mu;
  let m =
    match Hashtbl.find_opt t.tbl name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.replace t.tbl name m;
        t.order <- name :: t.order;
        m
  in
  Mutex.unlock t.mu;
  get m

let counter t name =
  let get = function
    | Counter c -> c
    | Gauge _ | Histogram _ ->
        invalid_arg (Printf.sprintf "Metrics.counter: %S is not a counter" name)
  in
  intern t name (fun () -> Counter { c_value = 0 }) get

let gauge t name =
  let get = function
    | Gauge g -> g
    | Counter _ | Histogram _ ->
        invalid_arg (Printf.sprintf "Metrics.gauge: %S is not a gauge" name)
  in
  intern t name (fun () -> Gauge { g_name = name; g_value = 0.; g_set = false }) get

let histogram t name =
  let get = function
    | Histogram h -> h
    | Counter _ | Gauge _ ->
        invalid_arg (Printf.sprintf "Metrics.histogram: %S is not a histogram" name)
  in
  intern t name
    (fun () ->
      Histogram
        {
          h_count = 0;
          h_sum = 0.;
          h_min = infinity;
          h_max = neg_infinity;
          h_buckets = Array.make bucket_count 0;
        })
    get

(* ---------------------------------------------------------- updates *)

let incr ?(by = 1) c = c.c_value <- c.c_value + by

let set g v =
  g.g_value <- v;
  g.g_set <- true

let set_max g v = if (not g.g_set) || v > g.g_value then set g v

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

(* ------------------------------------------------------------ reads *)

let counter_value c = c.c_value

let gauge_value g = if g.g_set then Some g.g_value else None

type hsnap = {
  count : int;
  sum : float;
  min : float;  (** meaningless when [count = 0] *)
  max : float;  (** meaningless when [count = 0] *)
  buckets : int array;  (** length {!bucket_count} *)
}

let histogram_snapshot h =
  {
    count = h.h_count;
    sum = h.h_sum;
    min = h.h_min;
    max = h.h_max;
    buckets = Array.copy h.h_buckets;
  }

(* ------------------------------------------------------------- dump *)

let names t =
  Mutex.lock t.mu;
  let names = List.rev t.order in
  Mutex.unlock t.mu;
  names

let find t name =
  Mutex.lock t.mu;
  let m = Hashtbl.find_opt t.tbl name in
  Mutex.unlock t.mu;
  m

let hsnap_to_json s =
  let buckets =
    Array.to_list s.buckets
    |> List.mapi (fun i c -> (i, c))
    |> List.filter (fun (_, c) -> c > 0)
    |> List.map (fun (i, c) ->
           Json.Obj
             [
               ("ge", if i = 0 then Json.Null else Json.Float (bucket_lower_bound i));
               ("lt", if i >= bucket_count - 1 then Json.Null else Json.Float (bucket_upper_bound i));
               ("count", Json.Int c);
             ])
  in
  Json.Obj
    (("count", Json.Int s.count)
     :: ("sum", Json.Float s.sum)
     :: (if s.count > 0 then
           [ ("min", Json.Float s.min); ("max", Json.Float s.max) ]
         else [])
    @ [ ("buckets", Json.List buckets) ])

let to_json t =
  let pick f = List.filter_map f (names t) in
  let counters =
    pick (fun name ->
        match find t name with
        | Some (Counter c) -> Some (name, Json.Int (counter_value c))
        | Some (Gauge _ | Histogram _) | None -> None)
  in
  let gauges =
    pick (fun name ->
        match find t name with
        | Some (Gauge g) ->
            Some (name, match gauge_value g with Some v -> Json.Float v | None -> Json.Null)
        | Some (Counter _ | Histogram _) | None -> None)
  in
  let histograms =
    pick (fun name ->
        match find t name with
        | Some (Histogram h) -> Some (name, hsnap_to_json (histogram_snapshot h))
        | Some (Counter _ | Gauge _) | None -> None)
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
    ]

let pp ppf t = Json.pp ppf (to_json t)
