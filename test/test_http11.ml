(* HTTP/1.1 semantics conformance: conditional GET (If-Modified-Since,
   If-None-Match, If-Match, If-Unmodified-Since, their RFC 9110 §13.2.2
   precedence), byte ranges (single, suffix, clamped, unsatisfiable,
   If-Range gating) and Accept-Encoding negotiation of precompressed
   gzip variants.

   Everything is driven over raw sockets by the table below, and the
   same table is replayed against all four architectures (AMPED, SPED,
   MP, MT) with the responses required to be byte-for-byte identical
   after masking the Date header — the protocol surface must not
   depend on the concurrency architecture.  Property tests then cover
   what a table cannot: random range windows reassembling to the exact
   body, 304s never leaking payload bytes, the test gzip codec
   round-tripping, and the three accepted date formats re-parsing.
   Finally the /server-status?json send counters prove the cheap
   responses are cheap: a cached 304 and a cached single-range 206
   each cost exactly one writev with zero copied body bytes. *)

module Server = Flash_live.Server
module Raw = Helpers.Raw
module Etag = Http.Etag
module Http_date = Http.Http_date

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let patterned n =
  String.init n (fun i -> Char.chr ((i * 31 + ((i lsr 8) * 7) + 13) land 0xff))

(* ------------------------------------------------------------------ *)
(* Shared fixture                                                      *)
(* ------------------------------------------------------------------ *)

(* One docroot reused by every server in the suite, so validator-bearing
   headers (ETag, Last-Modified) are identical across architectures and
   across the separate server runs being compared. *)
type fixture = {
  docroot : string;
  body_a : string;  (* /a.txt: identity representation *)
  size_a : int;
  mtime_a : float;
  etag_a : string;
  etag_a_gz : string;
  gz_a : string;  (* its .gz sibling *)
  date_a : string;  (* exact Last-Modified as IMF-fixdate *)
  body_z : string;  (* /z.txt: has a .gz sibling on disk too *)
  gz_z : string;
  etag_z_gz : string;
  body_n : string;  (* /n.txt: has no sibling *)
}

let fixture =
  lazy
    (let docroot = Filename.temp_file "flash_http11" "" in
     Sys.remove docroot;
     Unix.mkdir docroot 0o755;
     let body_a = "The_quick_brown_fox_jumps_over" in
     let body_z =
       String.concat "" (List.init 40 (fun i -> Printf.sprintf "zebra-%02d|" i))
     in
     let gz_a = Gzip.compress body_a and gz_z = Gzip.compress body_z in
     let body_n = "no precompressed sibling" in
     write_file (Filename.concat docroot "a.txt") body_a;
     write_file (Filename.concat docroot "z.txt") body_z;
     write_file (Filename.concat docroot "n.txt") body_n;
     (* Siblings written after their origins so their mtimes are not
        staler. *)
     write_file (Filename.concat docroot "a.txt.gz") gz_a;
     write_file (Filename.concat docroot "z.txt.gz") gz_z;
     Unix.mkdir (Filename.concat docroot "cgi-bin") 0o755;
     let cgi = Filename.concat docroot "cgi-bin/q.sh" in
     write_file cgi "#!/bin/sh\necho \"$QUERY_STRING $REQUEST_METHOD\"\n";
     Unix.chmod cgi 0o755;
     let st_a = Unix.stat (Filename.concat docroot "a.txt") in
     let st_z = Unix.stat (Filename.concat docroot "z.txt") in
     let mtime_a = st_a.Unix.st_mtime and size_a = st_a.Unix.st_size in
     {
       docroot;
       body_a;
       size_a;
       mtime_a;
       etag_a = Etag.make ~mtime:mtime_a ~size:size_a ();
       etag_a_gz = Etag.make ~suffix:"-gz" ~mtime:mtime_a ~size:size_a ();
       gz_a;
       date_a = Http_date.format (floor mtime_a);
       body_z;
       gz_z;
       etag_z_gz =
         Etag.make ~suffix:"-gz" ~mtime:st_z.Unix.st_mtime
           ~size:st_z.Unix.st_size ();
       body_n;
     })

let config_for mode =
  let fx = Lazy.force fixture in
  { (Server.default_config ~docroot:fx.docroot) with Server.mode }

let with_mode_server mode f =
  let server = Server.start_background (config_for mode) in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f (Server.port server))

(* ------------------------------------------------------------------ *)
(* The conformance table                                               *)
(* ------------------------------------------------------------------ *)

type expect_body = Exact of string | Empty | Any

type case = {
  label : string;
  meth : string;
  target : string;
  req_headers : (string * string) list;
  status : int;
  has : (string * string) list;  (* response headers, exact values *)
  absent : string list;
  body : expect_body;
}

let case ?(meth = "GET") ?(target = "/a.txt") ?(headers = []) ?(has = [])
    ?(absent = []) ?(body = Any) label status =
  { label; meth; target; req_headers = headers; status; has; absent; body }

(* ~40 torture cases.  Order matters only in that it is identical for
   every architecture (so per-case cache state is too); each case is an
   independent close-delimited connection. *)
let table () =
  let fx = Lazy.force fixture in
  let n = fx.size_a in
  let sub off len = String.sub fx.body_a off len in
  let future = Http_date.format (floor fx.mtime_a +. 86_400.) in
  let epoch = Http_date.format 0. in
  let gz_n = String.length fx.gz_a in
  [
    (* Baseline: the validators and range/negotiation advertisements. *)
    case "baseline 200" 200
      ~has:
        [
          ("etag", fx.etag_a);
          ("last-modified", fx.date_a);
          ("accept-ranges", "bytes");
          ("vary", "Accept-Encoding");
          ("content-length", string_of_int n);
        ]
      ~body:(Exact fx.body_a);
    case "HEAD has identical headers, empty body" 200 ~meth:"HEAD"
      ~has:[ ("etag", fx.etag_a); ("content-length", string_of_int n) ]
      ~body:Empty;
    (* If-Modified-Since. *)
    case "IMS exact date is 304" 304
      ~headers:[ ("If-Modified-Since", fx.date_a) ]
      ~has:[ ("etag", fx.etag_a); ("last-modified", fx.date_a) ]
      ~absent:[ "content-length"; "content-type" ]
      ~body:Empty;
    case "IMS future date is 304" 304
      ~headers:[ ("If-Modified-Since", future) ]
      ~body:Empty;
    case "IMS epoch is 200" 200
      ~headers:[ ("If-Modified-Since", epoch) ]
      ~body:(Exact fx.body_a);
    case "IMS accepts RFC 850 dates" 304
      ~headers:[ ("If-Modified-Since", Http_date.format_rfc850 (floor fx.mtime_a)) ]
      ~body:Empty;
    case "IMS accepts asctime dates" 304
      ~headers:
        [ ("If-Modified-Since", Http_date.format_asctime (floor fx.mtime_a)) ]
      ~body:Empty;
    case "IMS malformed date is vacuous" 200
      ~headers:[ ("If-Modified-Since", "a fortnight ago") ]
      ~body:(Exact fx.body_a);
    case "IMS trailing garbage is vacuous" 200
      ~headers:[ ("If-Modified-Since", fx.date_a ^ " tomorrow") ]
      ~body:(Exact fx.body_a);
    (* If-None-Match. *)
    case "INM matching strong tag is 304" 304
      ~headers:[ ("If-None-Match", fx.etag_a) ]
      ~has:[ ("etag", fx.etag_a) ]
      ~body:Empty;
    case "INM weak form of our tag still matches" 304
      ~headers:[ ("If-None-Match", "W/" ^ fx.etag_a) ]
      ~body:Empty;
    case "INM star is 304" 304
      ~headers:[ ("If-None-Match", "*") ]
      ~body:Empty;
    case "INM tag list scans to a match" 304
      ~headers:[ ("If-None-Match", "\"zzz\", " ^ fx.etag_a ^ ", \"yyy\"") ]
      ~body:Empty;
    case "INM miss is 200" 200
      ~headers:[ ("If-None-Match", "\"deadbeef\"") ]
      ~body:(Exact fx.body_a);
    case "INM miss consumes a 304-worthy IMS" 200
      ~headers:
        [ ("If-None-Match", "\"deadbeef\""); ("If-Modified-Since", fx.date_a) ]
      ~body:(Exact fx.body_a);
    (* If-Match / If-Unmodified-Since. *)
    case "If-Match star proceeds" 200
      ~headers:[ ("If-Match", "*") ]
      ~body:(Exact fx.body_a);
    case "If-Match our tag proceeds" 200
      ~headers:[ ("If-Match", fx.etag_a) ]
      ~body:(Exact fx.body_a);
    case "If-Match miss is 412" 412 ~headers:[ ("If-Match", "\"deadbeef\"") ];
    case "If-Match weak tag fails strong comparison" 412
      ~headers:[ ("If-Match", "W/" ^ fx.etag_a) ];
    case "IUS epoch is 412" 412
      ~headers:[ ("If-Unmodified-Since", epoch) ];
    case "IUS exact date proceeds" 200
      ~headers:[ ("If-Unmodified-Since", fx.date_a) ]
      ~body:(Exact fx.body_a);
    (* Ranges. *)
    case "range 0-3" 206
      ~headers:[ ("Range", "bytes=0-3") ]
      ~has:
        [
          ("content-range", Printf.sprintf "bytes 0-3/%d" n);
          ("content-length", "4");
          ("etag", fx.etag_a);
          ("accept-ranges", "bytes");
        ]
      ~body:(Exact (sub 0 4));
    case "range open end 4-" 206
      ~headers:[ ("Range", "bytes=4-") ]
      ~has:[ ("content-range", Printf.sprintf "bytes 4-%d/%d" (n - 1) n) ]
      ~body:(Exact (sub 4 (n - 4)));
    case "range suffix -5" 206
      ~headers:[ ("Range", "bytes=-5") ]
      ~has:
        [ ("content-range", Printf.sprintf "bytes %d-%d/%d" (n - 5) (n - 1) n) ]
      ~body:(Exact (sub (n - 5) 5));
    case "range end clamps to size" 206
      ~headers:[ ("Range", "bytes=10-9999") ]
      ~has:[ ("content-range", Printf.sprintf "bytes 10-%d/%d" (n - 1) n) ]
      ~body:(Exact (sub 10 (n - 10)));
    case "range past the end is 416" 416
      ~headers:[ ("Range", "bytes=100-") ]
      ~has:[ ("content-range", Printf.sprintf "bytes */%d" n) ];
    case "range junk digits ignored" 200
      ~headers:[ ("Range", "bytes=abc") ]
      ~body:(Exact fx.body_a);
    case "range backwards ignored" 200
      ~headers:[ ("Range", "bytes=5-2") ]
      ~body:(Exact fx.body_a);
    case "range wrong unit ignored" 200
      ~headers:[ ("Range", "lines=0-3") ]
      ~body:(Exact fx.body_a);
    case "multi-range degrades to the full body" 200
      ~headers:[ ("Range", "bytes=0-1,5-6") ]
      ~has:[ ("content-length", string_of_int n) ]
      ~absent:[ "content-range" ]
      ~body:(Exact fx.body_a);
    case "multi-range with no satisfiable member is 416" 416
      ~headers:[ ("Range", "bytes=100-,200-300") ]
      ~has:[ ("content-range", Printf.sprintf "bytes */%d" n) ];
    case "HEAD ignores range" 200 ~meth:"HEAD"
      ~headers:[ ("Range", "bytes=0-3") ]
      ~has:[ ("content-length", string_of_int n) ]
      ~absent:[ "content-range" ]
      ~body:Empty;
    (* If-Range gating the Range field. *)
    case "If-Range fresh etag applies the range" 206
      ~headers:[ ("Range", "bytes=0-3"); ("If-Range", fx.etag_a) ]
      ~body:(Exact (sub 0 4));
    case "If-Range stale etag sends the full body" 200
      ~headers:[ ("Range", "bytes=0-3"); ("If-Range", "\"deadbeef\"") ]
      ~body:(Exact fx.body_a);
    case "If-Range weak etag never matches" 200
      ~headers:[ ("Range", "bytes=0-3"); ("If-Range", "W/" ^ fx.etag_a) ]
      ~body:(Exact fx.body_a);
    case "If-Range exact date applies the range" 206
      ~headers:[ ("Range", "bytes=0-3"); ("If-Range", fx.date_a) ]
      ~body:(Exact (sub 0 4));
    case "If-Range stale date sends the full body" 200
      ~headers:[ ("Range", "bytes=0-3"); ("If-Range", epoch) ]
      ~body:(Exact fx.body_a);
    (* Accept-Encoding negotiation: /a.txt and /z.txt have on-disk .gz
       siblings, /n.txt has none. *)
    case "AE gzip gets the sibling variant" 200
      ~headers:[ ("Accept-Encoding", "gzip") ]
      ~has:
        [
          ("content-encoding", "gzip");
          ("etag", fx.etag_a_gz);
          ("vary", "Accept-Encoding");
          ("content-length", string_of_int gz_n);
        ]
      ~body:(Exact fx.gz_a);
    case "AE gzip;q=0 forbids the variant" 200
      ~headers:[ ("Accept-Encoding", "gzip;q=0") ]
      ~absent:[ "content-encoding" ]
      ~body:(Exact fx.body_a);
    case "AE identity;q=0 prefers gzip" 200
      ~headers:[ ("Accept-Encoding", "identity;q=0, gzip") ]
      ~has:[ ("content-encoding", "gzip") ]
      ~body:(Exact fx.gz_a);
    case "AE higher identity preference wins" 200
      ~headers:[ ("Accept-Encoding", "identity, gzip;q=0.5") ]
      ~absent:[ "content-encoding" ]
      ~body:(Exact fx.body_a);
    case "AE tiny positive q still negotiates gzip" 200
      ~headers:[ ("Accept-Encoding", "gzip;q=0.001") ]
      ~has:[ ("content-encoding", "gzip") ]
      ~body:(Exact fx.gz_a);
    case "INM revalidates the gzip variant" 304
      ~headers:
        [ ("If-None-Match", fx.etag_a_gz); ("Accept-Encoding", "gzip") ]
      ~has:[ ("etag", fx.etag_a_gz) ]
      ~body:Empty;
    case "range slices the gzip representation" 206
      ~headers:[ ("Range", "bytes=0-9"); ("Accept-Encoding", "gzip") ]
      ~has:
        [
          ("content-encoding", "gzip");
          ("content-range", Printf.sprintf "bytes 0-9/%d" gz_n);
        ]
      ~body:(Exact (String.sub fx.gz_a 0 10));
    case "precompressed sibling is served" 200 ~target:"/z.txt"
      ~headers:[ ("Accept-Encoding", "gzip") ]
      ~has:
        [
          ("content-encoding", "gzip");
          ("etag", fx.etag_z_gz);
          ("content-length", string_of_int (String.length fx.gz_z));
        ]
      ~body:(Exact fx.gz_z);
    case "sibling not served without negotiation" 200 ~target:"/z.txt"
      ~absent:[ "content-encoding" ]
      ~body:(Exact fx.body_z);
    case "AE gzip without a sibling gets identity" 200 ~target:"/n.txt"
      ~headers:[ ("Accept-Encoding", "gzip") ]
      ~has:[ ("vary", "Accept-Encoding") ]
      ~absent:[ "content-encoding" ]
      ~body:(Exact fx.body_n);
    case "conditionals do not rescue a 404" 404 ~target:"/missing.txt"
      ~headers:[ ("If-None-Match", "*") ]
      ~absent:[ "etag" ];
    (* Dispatch before any file is read: CGI runs the script, and a
       method the server does not implement is refused. *)
    case "CGI runs the script" 200 ~target:"/cgi-bin/q.sh?q=1"
      ~absent:[ "content-length" ]
      ~body:(Exact "q=1 GET\n");
    case "bodiless POST is not implemented" 501 ~meth:"POST"
      ~has:[ ("connection", "close") ];
  ]

let run_case port c =
  Raw.request ~port ~meth:c.meth ~headers:c.req_headers c.target

let check_case port c =
  let r = run_case port c in
  Alcotest.(check int) (c.label ^ ": status") c.status r.Raw.status;
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k r.Raw.headers with
      | Some got -> Alcotest.(check string) (c.label ^ ": " ^ k) v got
      | None -> Alcotest.failf "%s: missing header %s" c.label k)
    c.has;
  List.iter
    (fun k ->
      if List.mem_assoc k r.Raw.headers then
        Alcotest.failf "%s: header %s must be absent" c.label k)
    c.absent;
  match c.body with
  | Any -> ()
  | Empty ->
      Alcotest.(check string) (c.label ^ ": body must be empty") "" r.Raw.body
  | Exact b ->
      if not (String.equal r.Raw.body b) then
        Alcotest.failf "%s: body mismatch (%d bytes, wanted %d)" c.label
          (String.length r.Raw.body) (String.length b)

(* Every case's expectations, against the paper's canonical AMPED mode. *)
let test_table_amped () =
  with_mode_server Server.Amped (fun port ->
      List.iter (check_case port) (table ()))

(* The same wire bytes from every architecture.  Responses are compared
   to AMPED's after masking the Date header (the only legitimately
   volatile byte range: ETag/Last-Modified derive from the shared
   docroot, header padding is deterministic).  Exposed with the mode
   list as a parameter because Sharded must run from the last suite in
   the binary: OCaml 5 forbids Unix.fork once any domain has ever been
   spawned, so every MP (fork) test must precede the first
   domain-spawning one — test_sharded.ml supplies the SHARDED entry. *)
let byte_identity_against_amped modes =
  let cases = table () in
  let run mode = with_mode_server mode (fun port -> List.map (run_case port) cases) in
  let base = run Server.Amped in
  List.iter
    (fun (name, mode) ->
      let got = run mode in
      List.iteri
        (fun i (r : Raw.response) ->
          let want = (List.nth base i).Raw.raw in
          if
            not
              (String.equal (Raw.mask_dates want) (Raw.mask_dates r.Raw.raw))
          then
            Alcotest.failf "%s: %s response differs from AMPED" name
              (List.nth cases i).label)
        got)
    modes

let test_byte_identity () =
  byte_identity_against_amped
    [ ("SPED", Server.Sped); ("MP", Server.Mp 2); ("MT", Server.Mt 2) ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random partitions of a binary file: every window must come back 206
   with the exact Content-Range, and the windows must reassemble to the
   exact body — any off-by-one in slice bookkeeping breaks the equality. *)
let test_range_reassembly () =
  let body = patterned 1987 in
  let fx = Lazy.force fixture in
  let path = Filename.concat fx.docroot "r.bin" in
  write_file path body;
  with_mode_server Server.Amped (fun port ->
      let n = String.length body in
      let prop cuts =
        let cuts =
          List.sort_uniq compare (0 :: n :: List.map (fun c -> c mod n) cuts)
        in
        let rec windows = function
          | a :: (b :: _ as rest) when b > a -> (a, b - a) :: windows rest
          | _ :: rest -> windows rest
          | [] -> []
        in
        let pieces =
          List.map
            (fun (off, len) ->
              let r =
                Raw.request ~port
                  ~headers:
                    [ ("Range", Printf.sprintf "bytes=%d-%d" off (off + len - 1)) ]
                  "/r.bin"
              in
              if r.Raw.status <> 206 then
                QCheck.Test.fail_reportf "window %d+%d: status %d" off len
                  r.Raw.status;
              let want_cr = Printf.sprintf "bytes %d-%d/%d" off (off + len - 1) n in
              if List.assoc_opt "content-range" r.Raw.headers <> Some want_cr
              then QCheck.Test.fail_reportf "window %d+%d: bad Content-Range" off len;
              r.Raw.body)
            (windows cuts)
        in
        String.equal (String.concat "" pieces) body
      in
      QCheck.Test.check_exn
        (QCheck.Test.make ~count:15 ~name:"206 windows reassemble the body"
           QCheck.(small_list small_nat)
           prop))

(* However the conditional headers land, a 304 must be a bare head:
   zero payload bytes on the wire before the close. *)
let test_304_never_carries_body () =
  let fx = Lazy.force fixture in
  let pool =
    [|
      [ ("If-None-Match", fx.etag_a) ];
      [ ("If-None-Match", "*") ];
      [ ("If-None-Match", "\"miss\"") ];
      [ ("If-Modified-Since", fx.date_a) ];
      [ ("If-Modified-Since", Http_date.format 0.) ];
      [ ("If-Modified-Since", "garbage") ];
      [ ("If-None-Match", fx.etag_a); ("If-Modified-Since", "garbage") ];
      [ ("If-None-Match", fx.etag_a_gz); ("Accept-Encoding", "gzip") ];
      [ ("If-Modified-Since", fx.date_a); ("Accept-Encoding", "gzip;q=0") ];
    |]
  in
  with_mode_server Server.Amped (fun port ->
      let prop i =
        let headers = pool.(i mod Array.length pool) in
        let r = Raw.request ~port ~headers "/a.txt" in
        (match r.Raw.status with
        | 304 ->
            if r.Raw.body <> "" then
              QCheck.Test.fail_reportf "304 carried %d payload bytes"
                (String.length r.Raw.body);
            if List.mem_assoc "content-length" r.Raw.headers then
              QCheck.Test.fail_report "304 carried Content-Length"
        | 200 -> ()
        | s -> QCheck.Test.fail_reportf "unexpected status %d" s);
        true
      in
      QCheck.Test.check_exn
        (QCheck.Test.make ~count:40 ~name:"304 is always a bare head"
           QCheck.small_nat prop))

(* The stored-block compressor and the reference inflate are exact
   inverses on arbitrary bytes (including runs longer than one stored
   block's 65535-byte limit, via a large generator case). *)
let gzip_roundtrip_prop s =
  match Gzip.decompress (Gzip.compress s) with
  | Ok s' -> String.equal s s'
  | Error e -> QCheck.Test.fail_reportf "inflate rejected our gzip: %s" e

let test_gzip_roundtrip =
  Helpers.qcheck_case ~count:200 ~name:"gzip compress/decompress round-trips"
    QCheck.(string_gen_of_size Gen.(frequency [ (9, small_nat); (1, return 70_000) ]) Gen.char)
    gzip_roundtrip_prop

(* All three RFC 9110 date formats re-parse to the second they encode,
   and trailing garbage after a valid date is rejected. *)
let date_roundtrip_prop ts =
  let t = float_of_int ts in
  Http_date.parse (Http_date.format t) = Some t
  && Http_date.parse (Http_date.format_rfc850 t) = Some t
  && Http_date.parse (Http_date.format_asctime t) = Some t
  && Http_date.parse (Http_date.format t ^ " x") = None

let test_date_roundtrip =
  (* format_rfc850's two-digit year pivots at 70: stay inside 1970-2069. *)
  Helpers.qcheck_case ~count:500 ~name:"all three date formats round-trip"
    QCheck.(int_range 0 2_000_000_000)
    date_roundtrip_prop

(* ------------------------------------------------------------------ *)
(* Send-path cost of the new responses, via /server-status?json        *)
(* ------------------------------------------------------------------ *)

(* Scrape the counters over the same keep-alive connection as the
   request under test: the single event loop processes the connection's
   requests strictly in order, so the second scrape's body includes
   exactly the sends of the first scrape and of the request under test.
   The first scrape's own cost is known — one writev, and its copied
   bytes are precisely the response bytes we received for it — so the
   request's cost falls out by subtraction, deterministically. *)
let measure_on s ~request:(meth, target, headers) =
  let s0 = Raw.session_request s "/server-status?json" in
  let r = Raw.session_request s ~meth ~headers target in
  let s1 = Raw.session_request s "/server-status?json" in
  let count scrape key =
    Test_status.(to_int (row (parse_json scrape.Raw.body) key))
  in
  let delta key = count s1 key - count s0 key in
  (* Less scrape s0's own send. *)
  let writev = delta "flash_writev_calls_total" - 1 in
  let copied = delta "flash_bytes_copied_total" - String.length s0.Raw.raw in
  (r, writev, copied)

let measure_over_session port ~warm ~request =
  let s = Raw.open_session ~port in
  Fun.protect
    ~finally:(fun () -> Raw.close_session s)
    (fun () ->
      List.iter (fun t -> ignore (Raw.session_request s t)) warm;
      measure_on s ~request)

let test_cached_304_costs_one_writev () =
  with_mode_server Server.Amped (fun port ->
      let fx = Lazy.force fixture in
      let r, writev, copied =
        measure_over_session port ~warm:[ "/a.txt" ]
          ~request:("GET", "/a.txt", [ ("If-None-Match", fx.etag_a) ])
      in
      Alcotest.(check int) "304" 304 r.Raw.status;
      Alcotest.(check int) "exactly one writev" 1 writev;
      Alcotest.(check int) "zero bytes copied" 0 copied)

let test_cached_206_copies_only_the_header () =
  with_mode_server Server.Amped (fun port ->
      let fx = Lazy.force fixture in
      let r, writev, copied =
        measure_over_session port ~warm:[ "/a.txt" ]
          ~request:("GET", "/a.txt", [ ("Range", "bytes=5-14") ])
      in
      Alcotest.(check int) "206" 206 r.Raw.status;
      Alcotest.(check string) "slice body" (String.sub fx.body_a 5 10)
        r.Raw.body;
      Alcotest.(check int) "exactly one writev" 1 writev;
      (* The per-request Content-Range header is the only copy; the
         ten body bytes ride the cached mapping untouched. *)
      Alcotest.(check int) "copied exactly the header bytes"
        (String.length r.Raw.raw - String.length r.Raw.body)
        copied)

(* A file too large to cache negotiates like any other: a gzip client
   gets its fresh [.gz] sibling, with the variant's Content-Encoding
   and ETag, and an identity client gets the origin.
   [max_cached_file] bounds variants too, so with both representations
   above it the cache holds no entry.  One keep-alive session rides one
   MP child or shard, whose own cache it reads.  Sharded runs it from
   test_sharded.ml. *)
let test_large_file_negotiates mode () =
  let docroot = Filename.temp_file "flash_largegz" "" in
  Sys.remove docroot;
  Unix.mkdir docroot 0o755;
  let origin = patterned 300_000 in
  let gz = Gzip.compress origin in
  let path = Filename.concat docroot "big.bin" in
  write_file path origin;
  (* Written after its origin, so its mtime is not staler. *)
  write_file (path ^ ".gz") gz;
  let st = Unix.stat path in
  let etag_gz =
    Etag.make ~suffix:"-gz" ~mtime:st.Unix.st_mtime ~size:st.Unix.st_size ()
  in
  let config =
    {
      (Server.default_config ~docroot) with
      Server.mode;
      max_cached_file = 128 * 1024;
    }
  in
  let server = Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let s = Raw.open_session ~port:(Server.port server) in
      Fun.protect
        ~finally:(fun () -> Raw.close_session s)
        (fun () ->
          let r =
            Raw.session_request s ~headers:[ ("Accept-Encoding", "gzip") ]
              "/big.bin"
          in
          Alcotest.(check int) "gzip 200" 200 r.Raw.status;
          Alcotest.(check (option string)) "Content-Encoding" (Some "gzip")
            (List.assoc_opt "content-encoding" r.Raw.headers);
          Alcotest.(check (option string)) "the variant's ETag" (Some etag_gz)
            (List.assoc_opt "etag" r.Raw.headers);
          Alcotest.(check bool) "the sibling's bytes" true
            (String.equal gz r.Raw.body);
          let r = Raw.session_request s "/big.bin" in
          Alcotest.(check int) "identity 200" 200 r.Raw.status;
          Alcotest.(check (option string)) "no Content-Encoding" None
            (List.assoc_opt "content-encoding" r.Raw.headers);
          Alcotest.(check bool) "the origin's bytes" true
            (String.equal origin r.Raw.body);
          let j =
            Test_status.parse_json
              (Raw.session_request s "/server-status?json").Raw.body
          in
          Alcotest.(check int) "no entry cached" 0
            Test_status.(
              to_int
                (row j ~labels:[ ("cache", "file") ] "flash_cache_entries"))))

let suite =
  [
    Alcotest.test_case "conformance table (AMPED)" `Quick test_table_amped;
    Alcotest.test_case "byte-identity across SPED/MP/MT" `Quick
      test_byte_identity;
    Alcotest.test_case "random 206 windows reassemble" `Quick
      test_range_reassembly;
    Alcotest.test_case "304 never carries payload bytes" `Quick
      test_304_never_carries_body;
    test_gzip_roundtrip;
    test_date_roundtrip;
    Alcotest.test_case "cached 304 = 1 writev, 0 copies" `Quick
      test_cached_304_costs_one_writev;
    Alcotest.test_case "cached 206 copies only its header" `Quick
      test_cached_206_copies_only_the_header;
    Alcotest.test_case "a large file negotiates gzip (AMPED)" `Quick
      (test_large_file_negotiates Server.Amped);
    Alcotest.test_case "a large file negotiates gzip (SPED)" `Quick
      (test_large_file_negotiates Server.Sped);
    Alcotest.test_case "a large file negotiates gzip (MP)" `Quick
      (test_large_file_negotiates (Server.Mp 2));
    Alcotest.test_case "a large file negotiates gzip (MT)" `Quick
      (test_large_file_negotiates (Server.Mt 2));
  ]
