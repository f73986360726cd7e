(* A dependency-free gzip codec (RFC 1951/1952).

   The compressor emits *stored* (uncompressed) deflate blocks: valid
   gzip that any decompressor accepts, at a one-pass memcpy-plus-CRC32
   cost.  The conformance suite writes its .gz sibling fixtures with
   it, to exercise Content-Encoding negotiation, variant caching and
   Vary, not to save bytes.

   The decompressor is a complete inflate (stored, fixed-Huffman and
   dynamic-Huffman blocks) so conformance tests can round-trip both our
   stored-block output and externally precompressed fixtures. *)

(* ---------------- CRC-32 (IEEE, reflected) ---------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xedb88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 ?(crc = 0l) s =
  let table = Lazy.force crc_table in
  let c = ref (Int32.logxor crc 0xffffffffl) in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xffl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xffffffffl

(* ---------------- stored-block compressor ---------------- *)

let add_u16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))

let add_u32 buf v =
  let v = Int32.to_int (Int32.logand v 0xffffffffl) land 0xffffffff in
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let deflate_stored s =
  let n = String.length s in
  let buf = Buffer.create (n + 5 + (n / 65535 * 5) + 5) in
  if n = 0 then begin
    (* One final, empty stored block. *)
    Buffer.add_char buf '\x01';
    add_u16 buf 0;
    add_u16 buf 0xffff
  end
  else begin
    let pos = ref 0 in
    while !pos < n do
      let len = min 65535 (n - !pos) in
      let final = !pos + len >= n in
      (* Block header: BFINAL bit, BTYPE=00 (stored); byte-aligned. *)
      Buffer.add_char buf (if final then '\x01' else '\x00');
      add_u16 buf len;
      add_u16 buf (lnot len land 0xffff);
      Buffer.add_substring buf s !pos len;
      pos := !pos + len
    done
  end;
  Buffer.contents buf

let compress s =
  let buf = Buffer.create (String.length s + 32) in
  (* Header: magic, CM=deflate, no flags, mtime 0 (reproducible
     output — the variant cache keys freshness off the origin file),
     XFL 0, OS 255 (unknown). *)
  Buffer.add_string buf "\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff";
  Buffer.add_string buf (deflate_stored s);
  add_u32 buf (crc32 s);
  add_u32 buf (Int32.of_int (String.length s land 0xffffffff));
  Buffer.contents buf

(* ---------------- inflate ---------------- *)

exception Corrupt of string

type bits = { data : string; mutable pos : int; mutable bit : int }

let bit_ensure b n =
  if b.pos >= String.length b.data && n > 0 then raise (Corrupt "truncated")

let read_bit b =
  bit_ensure b 1;
  let v = (Char.code b.data.[b.pos] lsr b.bit) land 1 in
  if b.bit = 7 then begin
    b.bit <- 0;
    b.pos <- b.pos + 1
  end
  else b.bit <- b.bit + 1;
  v

let read_bits b n =
  let v = ref 0 in
  for i = 0 to n - 1 do
    v := !v lor (read_bit b lsl i)
  done;
  !v

let align_byte b = if b.bit <> 0 then begin b.bit <- 0; b.pos <- b.pos + 1 end

(* Canonical Huffman decoding from code lengths (RFC 1951 §3.2.2):
   per-length first-code/first-symbol tables, walked bit by bit. *)
type huffman = {
  counts : int array;  (* codes of each length 0..15 *)
  symbols : int array;  (* symbols sorted by (length, symbol) *)
}

let build_huffman lengths =
  let counts = Array.make 16 0 in
  Array.iter (fun l -> if l > 0 then counts.(l) <- counts.(l) + 1) lengths;
  let offsets = Array.make 16 0 in
  for l = 1 to 15 do
    offsets.(l) <- offsets.(l - 1) + counts.(l - 1)
  done;
  let total = offsets.(15) + counts.(15) in
  let symbols = Array.make (max 1 total) 0 in
  Array.iteri
    (fun sym l ->
      if l > 0 then begin
        symbols.(offsets.(l)) <- sym;
        offsets.(l) <- offsets.(l) + 1
      end)
    lengths;
  { counts; symbols }

let decode_symbol b h =
  let code = ref 0 and first = ref 0 and index = ref 0 in
  let result = ref (-1) in
  let len = ref 1 in
  while !result < 0 do
    if !len > 15 then raise (Corrupt "bad code");
    code := !code lor read_bit b;
    let count = h.counts.(!len) in
    if !code - !first < count then result := h.symbols.(!index + !code - !first)
    else begin
      index := !index + count;
      first := (!first + count) lsl 1;
      code := !code lsl 1;
      incr len
    end
  done;
  !result

let length_base =
  [| 3; 4; 5; 6; 7; 8; 9; 10; 11; 13; 15; 17; 19; 23; 27; 31; 35; 43; 51; 59;
     67; 83; 99; 115; 131; 163; 195; 227; 258 |]

let length_extra =
  [| 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3; 4; 4; 4; 4;
     5; 5; 5; 5; 0 |]

let dist_base =
  [| 1; 2; 3; 4; 5; 7; 9; 13; 17; 25; 33; 49; 65; 97; 129; 193; 257; 385; 513;
     769; 1025; 1537; 2049; 3073; 4097; 6145; 8193; 12289; 16385; 24577 |]

let dist_extra =
  [| 0; 0; 0; 0; 1; 1; 2; 2; 3; 3; 4; 4; 5; 5; 6; 6; 7; 7; 8; 8; 9; 9; 10; 10;
     11; 11; 12; 12; 13; 13 |]

let fixed_lit_huffman =
  lazy
    (build_huffman
       (Array.init 288 (fun i ->
            if i < 144 then 8 else if i < 256 then 9 else if i < 280 then 7
            else 8)))

let fixed_dist_huffman = lazy (build_huffman (Array.make 30 5))

let inflate_block b out lit dist =
  let finished = ref false in
  while not !finished do
    let sym = decode_symbol b lit in
    if sym < 256 then Buffer.add_char out (Char.chr sym)
    else if sym = 256 then finished := true
    else begin
      let sym = sym - 257 in
      if sym >= Array.length length_base then raise (Corrupt "bad length");
      let len = length_base.(sym) + read_bits b length_extra.(sym) in
      let dsym = decode_symbol b dist in
      if dsym >= Array.length dist_base then raise (Corrupt "bad distance");
      let d = dist_base.(dsym) + read_bits b dist_extra.(dsym) in
      let from = Buffer.length out - d in
      if from < 0 then raise (Corrupt "distance too far");
      for i = 0 to len - 1 do
        Buffer.add_char out (Buffer.nth out (from + i))
      done
    end
  done

let code_length_order =
  [| 16; 17; 18; 0; 8; 7; 9; 6; 10; 5; 11; 4; 12; 3; 13; 2; 14; 1; 15 |]

let read_dynamic_tables b =
  let hlit = read_bits b 5 + 257 in
  let hdist = read_bits b 5 + 1 in
  let hclen = read_bits b 4 + 4 in
  let cl_lengths = Array.make 19 0 in
  for i = 0 to hclen - 1 do
    cl_lengths.(code_length_order.(i)) <- read_bits b 3
  done;
  let cl = build_huffman cl_lengths in
  let lengths = Array.make (hlit + hdist) 0 in
  let i = ref 0 in
  while !i < hlit + hdist do
    let sym = decode_symbol b cl in
    if sym < 16 then begin
      lengths.(!i) <- sym;
      incr i
    end
    else begin
      let repeat, value =
        match sym with
        | 16 ->
            if !i = 0 then raise (Corrupt "repeat at start");
            (read_bits b 2 + 3, lengths.(!i - 1))
        | 17 -> (read_bits b 3 + 3, 0)
        | 18 -> (read_bits b 7 + 11, 0)
        | _ -> raise (Corrupt "bad code-length symbol")
      in
      if !i + repeat > hlit + hdist then raise (Corrupt "repeat overflow");
      for _ = 1 to repeat do
        lengths.(!i) <- value;
        incr i
      done
    end
  done;
  ( build_huffman (Array.sub lengths 0 hlit),
    build_huffman (Array.sub lengths hlit hdist) )

let inflate s =
  let b = { data = s; pos = 0; bit = 0 } in
  let out = Buffer.create (String.length s * 2) in
  (try
     let final = ref false in
     while not !final do
       final := read_bit b = 1;
       match read_bits b 2 with
       | 0 ->
           (* Stored: byte-align, LEN, one's-complement check, raw copy. *)
           align_byte b;
           bit_ensure b 1;
           let len = read_bits b 16 in
           let nlen = read_bits b 16 in
           if len lxor nlen <> 0xffff then raise (Corrupt "stored length check");
           if b.pos + len > String.length s then raise (Corrupt "truncated");
           Buffer.add_substring out s b.pos len;
           b.pos <- b.pos + len
       | 1 ->
           inflate_block b out (Lazy.force fixed_lit_huffman)
             (Lazy.force fixed_dist_huffman)
       | 2 ->
           let lit, dist = read_dynamic_tables b in
           inflate_block b out lit dist
       | _ -> raise (Corrupt "bad block type")
     done;
     Ok (Buffer.contents out)
   with
  | Corrupt msg -> Error msg
  | Invalid_argument _ -> Error "truncated")

let u32_at s pos =
  Int32.logor
    (Int32.of_int
       (Char.code s.[pos]
       lor (Char.code s.[pos + 1] lsl 8)
       lor (Char.code s.[pos + 2] lsl 16)))
    (Int32.shift_left (Int32.of_int (Char.code s.[pos + 3])) 24)

let decompress s =
  let n = String.length s in
  if n < 18 then Error "too short for gzip"
  else if s.[0] <> '\x1f' || s.[1] <> '\x8b' then Error "bad magic"
  else if s.[2] <> '\x08' then Error "unknown compression method"
  else begin
    let flg = Char.code s.[3] in
    (* Skip the fixed header, then optional FEXTRA/FNAME/FCOMMENT/FHCRC. *)
    let pos = ref 10 in
    let skip_zstring () =
      while !pos < n && s.[!pos] <> '\x00' do
        incr pos
      done;
      incr pos
    in
    if flg land 0x04 <> 0 && !pos + 2 <= n then begin
      let xlen = Char.code s.[!pos] lor (Char.code s.[!pos + 1] lsl 8) in
      pos := !pos + 2 + xlen
    end;
    if flg land 0x08 <> 0 then skip_zstring ();
    if flg land 0x10 <> 0 then skip_zstring ();
    if flg land 0x02 <> 0 then pos := !pos + 2;
    if !pos + 8 > n then Error "truncated"
    else
      match inflate (String.sub s !pos (n - !pos - 8)) with
      | Error _ as e -> e
      | Ok payload ->
          let crc = u32_at s (n - 8) in
          let isize = u32_at s (n - 4) in
          if crc32 payload <> crc then Error "crc mismatch"
          else if
            Int32.of_int (String.length payload land 0xffffffff) <> isize
          then Error "length mismatch"
          else Ok payload
  end
