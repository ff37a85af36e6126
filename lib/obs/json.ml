(* Minimal JSON: a value type, a printer, and a recursive-descent
   parser. Zero dependencies by design — the observability layer must
   not pull a JSON package into the substrate, and the CI validator
   needs to *parse* what the sinks emit with the same code. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ----------------------------------------------------------- output *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let escaped s =
  let buf = Buffer.create (String.length s + 2) in
  escape buf s;
  Buffer.contents buf

(* The pairs 00..99 in one string literal, so initialising the module
   allocates nothing: numbers are written most significant first, a
   pair per [Buffer.add_uint16_be], straight into the buffer. *)
let digit_pairs =
  "00010203040506070809101112131415161718192021222324252627282930313233343536373839\
   40414243444546474849505152535455565758596061626364656667686970717273747576777879\
   8081828384858687888990919293949596979899"

let[@inline] add_pair buf d = Buffer.add_uint16_be buf (String.get_uint16_be digit_pairs (2 * d))

(* The digits of [-n] for [n <= 0]; working on the non-positive value
   lets [min_int] through without a special case *)
let rec add_digits buf n =
  if n <= -100 then begin
    add_digits buf (n / 100);
    add_pair buf (-(n mod 100))
  end
  else if n <= -10 then add_pair buf (-n)
  else Buffer.add_char buf (Char.unsafe_chr (48 - n))

(* Same bytes as [string_of_int], without its format-string
   interpretation or a staging string *)
let add_int buf i =
  if i >= 0 then add_digits buf (-i)
  else begin
    Buffer.add_char buf '-';
    add_digits buf i
  end

(* [d] as exactly [n] digits, zero-padded *)
let rec add_n_digits buf d n =
  if n >= 2 then begin
    add_n_digits buf (d / 100) (n - 2);
    add_pair buf (d mod 100)
  end
  else if n = 1 then Buffer.add_char buf (Char.unsafe_chr (48 + d))

(* The C primitive behind [Printf.sprintf "%.12g"]: for finite floats
   the two agree byte for byte, and the primitive skips the format
   interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let pow10 =
  [| 1.; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15 |]

let int_pow10 = Array.init 12 (fun i -> int_of_float pow10.(i))

(* [%.12g] without C's multi-precision formatting, for the values a
   trace is made of. If 1e-4 <= |x| < 1e12, [%.12g] is fixed notation
   with the 12 significant digits of [round (|x| * 10^k)], where k
   puts the product in [1e11, 1e12). 10^k is exact (k <= 15) and the
   product is within 2^-13 of exact, so rounding it agrees with the
   exact decimal expansion unless it lies within 1e-3 of a tie or of
   the range ends. Those cases, and every other [x], return [false]
   having written nothing. The JSON float marker [".0"] is added when
   no fraction digits remain. *)
let add_fixed12 buf x =
  let a = Float.abs x in
  if not (a >= 1e-4 && a < 1e12) then false
  else begin
    let k = ref 0 in
    while a *. pow10.(!k) < 1e11 do
      incr k
    done;
    let y = a *. pow10.(!k) in
    (* y + 0.5 is exact below 2^40, so this rounds half up *)
    let r = int_of_float (y +. 0.5) in
    if y < 1e11 +. 1. || y >= 1e12 -. 1. || Float.abs (y -. float_of_int r) > 0.499 then false
    else begin
      if x < 0. then Buffer.add_char buf '-';
      let e = 11 - !k in
      if e >= 0 then begin
        (* the integer part, then the fraction's digits up to its
           last nonzero one, or ".0" when it is zero *)
        let p = int_pow10.(11 - e) in
        add_digits buf (-(r / p));
        let frac = ref (r mod p) and n = ref (11 - e) in
        if !frac = 0 then Buffer.add_string buf ".0"
        else begin
          while !frac mod 10 = 0 do
            frac := !frac / 10;
            decr n
          done;
          Buffer.add_char buf '.';
          add_n_digits buf !frac !n
        end
      end
      else begin
        Buffer.add_string buf "0.";
        for _ = 2 to -e do
          Buffer.add_char buf '0'
        done;
        let d = ref r and n = ref 12 in
        while !d mod 10 = 0 do
          d := !d / 10;
          decr n
        done;
        add_n_digits buf !d !n
      end;
      true
    end
  end

let add_float buf f =
  if Float.is_nan f then Buffer.add_string buf "null"
  else if f = Float.infinity then Buffer.add_string buf "1e308"
  else if f = Float.neg_infinity then Buffer.add_string buf "-1e308"
  else if not (add_fixed12 buf f) then begin
    let s = format_float "%.12g" f in
    Buffer.add_string buf s;
    (* keep a float marker so the value parses back as a float *)
    if not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s) then
      Buffer.add_string buf ".0"
  end

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | String s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

let pp ppf v = Fmt.string ppf (to_string v)

(* ---------------------------------------------------------- parsing *)

exception Malformed of string

type cursor = { src : string; mutable pos : int }

let fail cur msg = raise (Malformed (Printf.sprintf "%s at byte %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      skip_ws cur
  | Some _ | None -> ()

let expect cur c =
  match peek cur with
  | Some x when x = c -> advance cur
  | Some _ | None -> fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.src && String.sub cur.src cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected '%s'" word)

(* UTF-8 encode one scalar value (surrogate pairs are not recombined:
   trace payloads are ASCII in practice) *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | None -> fail cur "unterminated escape"
        | Some c ->
            advance cur;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if cur.pos + 4 > String.length cur.src then fail cur "truncated \\u escape";
                let hex = String.sub cur.src cur.pos 4 in
                cur.pos <- cur.pos + 4;
                let u =
                  try int_of_string ("0x" ^ hex)
                  with Failure _ -> fail cur "bad \\u escape"
                in
                add_utf8 buf u
            | _ -> fail cur "unknown escape");
            go ())
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  let rec scan () =
    match peek cur with
    | Some c when is_num_char c ->
        advance cur;
        scan ()
    | Some _ | None -> ()
  in
  scan ();
  let s = String.sub cur.src start (cur.pos - start) in
  if s = "" then fail cur "expected a number";
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail cur "bad float"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> String (parse_string cur)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else
        let rec items acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              items (v :: acc)
          | Some ']' ->
              advance cur;
              List (List.rev (v :: acc))
          | Some _ | None -> fail cur "expected ',' or ']'"
        in
        items []
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else
        let field () =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              fields (kv :: acc)
          | Some '}' ->
              advance cur;
              Obj (List.rev (kv :: acc))
          | Some _ | None -> fail cur "expected ',' or '}'"
        in
        fields []
  | Some _ -> parse_number cur

let of_string s =
  let cur = { src = s; pos = 0 } in
  match parse_value cur with
  | v ->
      skip_ws cur;
      if cur.pos <> String.length s then Error "trailing garbage" else Ok v
  | exception Malformed msg -> Error msg

(* --------------------------------------------------------- accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_int = function Int i -> Some i | Float f when Float.is_integer f -> Some (int_of_float f) | _ -> None

let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let to_str = function String s -> Some s | _ -> None
