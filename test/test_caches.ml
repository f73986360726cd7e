(* Flash's three application caches. *)

let with_kernel f =
  Helpers.run_sim (fun engine ->
      let kernel = Simos.Kernel.create engine Simos.Os_profile.freebsd in
      f kernel)

let add_file kernel path size =
  Simos.Fs.add_file (Simos.Kernel.fs kernel) ~path ~size

(* ---------------- pathname cache ---------------- *)

let test_pathname_basic () =
  with_kernel (fun kernel ->
      let c = Flash.Pathname_cache.create ~entries:10 () in
      Alcotest.(check bool) "enabled" true (Flash.Pathname_cache.enabled c);
      let f = add_file kernel "/a.html" 100 in
      Alcotest.(check bool) "miss" true (Flash.Pathname_cache.find c "/a.html" = None);
      Flash.Pathname_cache.insert c "/a.html" f;
      (match Flash.Pathname_cache.find c "/a.html" with
      | Some g -> Alcotest.(check int) "hit" f.Simos.Fs.inode g.Simos.Fs.inode
      | None -> Alcotest.fail "expected hit");
      Alcotest.(check int) "hits" 1 (Flash.Pathname_cache.hits c);
      Alcotest.(check int) "misses" 1 (Flash.Pathname_cache.misses c))

let test_pathname_bounded () =
  with_kernel (fun kernel ->
      let c = Flash.Pathname_cache.create ~entries:5 () in
      for i = 1 to 20 do
        let f = add_file kernel (Printf.sprintf "/f%d" i) 100 in
        Flash.Pathname_cache.insert c f.Simos.Fs.path f
      done;
      Alcotest.(check int) "bounded" 5 (Flash.Pathname_cache.length c);
      Alcotest.(check bool) "most recent kept" true
        (Flash.Pathname_cache.find c "/f20" <> None);
      Alcotest.(check bool) "oldest evicted" true
        (Flash.Pathname_cache.find c "/f1" = None))

let test_pathname_disabled () =
  with_kernel (fun kernel ->
      let c = Flash.Pathname_cache.create ~entries:0 () in
      Alcotest.(check bool) "disabled" false (Flash.Pathname_cache.enabled c);
      let f = add_file kernel "/x" 10 in
      Flash.Pathname_cache.insert c "/x" f;
      Alcotest.(check bool) "never hits" true
        (Flash.Pathname_cache.find c "/x" = None))

let test_pathname_invalidate () =
  with_kernel (fun kernel ->
      let c = Flash.Pathname_cache.create ~entries:5 () in
      let f = add_file kernel "/inv" 10 in
      Flash.Pathname_cache.insert c "/inv" f;
      Flash.Pathname_cache.invalidate c "/inv";
      Alcotest.(check bool) "gone" true (Flash.Pathname_cache.find c "/inv" = None))

(* ---------------- header cache ---------------- *)

let test_header_basic () =
  with_kernel (fun kernel ->
      let c = Flash.Header_cache.create ~enabled:true () in
      let f = add_file kernel "/h.html" 500 in
      Alcotest.(check bool) "miss" true (Flash.Header_cache.find c f = None);
      Flash.Header_cache.insert c f "HTTP/1.0 200 OK\r\n\r\n";
      Alcotest.(check (option string)) "hit" (Some "HTTP/1.0 200 OK\r\n\r\n")
        (Flash.Header_cache.find c f);
      Alcotest.(check int) "length" 1 (Flash.Header_cache.length c))

let test_header_invalidated_by_mtime () =
  with_kernel (fun kernel ->
      let c = Flash.Header_cache.create ~enabled:true () in
      let f = add_file kernel "/h2.html" 500 in
      Flash.Header_cache.insert c f "old-header";
      (* The file changes: the cached header is stale and dropped. *)
      Simos.Fs.touch_mtime (Simos.Kernel.fs kernel) f ~now:123.;
      Alcotest.(check bool) "stale dropped" true (Flash.Header_cache.find c f = None);
      Alcotest.(check int) "invalidations" 1 (Flash.Header_cache.invalidations c);
      (* Re-inserting against the new mtime works. *)
      Flash.Header_cache.insert c f "new-header";
      Alcotest.(check (option string)) "fresh hit" (Some "new-header")
        (Flash.Header_cache.find c f))

let test_header_disabled () =
  with_kernel (fun kernel ->
      let c = Flash.Header_cache.create ~enabled:false () in
      let f = add_file kernel "/h3.html" 500 in
      Flash.Header_cache.insert c f "x";
      Alcotest.(check bool) "never hits" true (Flash.Header_cache.find c f = None))

(* ---------------- mmap cache ---------------- *)

let chunk_bytes = 65536

let test_mmap_reuse () =
  with_kernel (fun kernel ->
      let c =
        Flash.Mmap_cache.create kernel ~chunk_bytes ~max_bytes:(10 * chunk_bytes)
      in
      let f = add_file kernel "/m.bin" (2 * chunk_bytes) in
      let ch = Flash.Mmap_cache.acquire c f ~index:0 in
      Alcotest.(check int) "one map op" 1 (Flash.Mmap_cache.map_ops c);
      Flash.Mmap_cache.release c ch;
      (* Released chunk lingers: the next acquire reuses the mapping. *)
      let ch2 = Flash.Mmap_cache.acquire c f ~index:0 in
      Alcotest.(check int) "still one map op" 1 (Flash.Mmap_cache.map_ops c);
      Alcotest.(check int) "reuse hit" 1 (Flash.Mmap_cache.reuse_hits c);
      Flash.Mmap_cache.release c ch2;
      Alcotest.(check int) "no unmaps yet" 0 (Flash.Mmap_cache.unmap_ops c))

let test_mmap_lazy_unmap () =
  with_kernel (fun kernel ->
      let c =
        Flash.Mmap_cache.create kernel ~chunk_bytes ~max_bytes:(2 * chunk_bytes)
      in
      let files =
        Array.init 4 (fun i ->
            add_file kernel (Printf.sprintf "/mm%d.bin" i) chunk_bytes)
      in
      Array.iter
        (fun f ->
          let ch = Flash.Mmap_cache.acquire c f ~index:0 in
          Flash.Mmap_cache.release c ch)
        files;
      (* Free-list capacity is 2 chunks: two oldest were lazily unmapped. *)
      Alcotest.(check int) "unmaps" 2 (Flash.Mmap_cache.unmap_ops c);
      Alcotest.(check int) "mapped bytes bounded" (2 * chunk_bytes)
        (Flash.Mmap_cache.mapped_bytes c))

let test_mmap_active_not_unmapped () =
  with_kernel (fun kernel ->
      let c =
        Flash.Mmap_cache.create kernel ~chunk_bytes ~max_bytes:(1 * chunk_bytes)
      in
      let f1 = add_file kernel "/a1.bin" chunk_bytes in
      let f2 = add_file kernel "/a2.bin" chunk_bytes in
      let ch1 = Flash.Mmap_cache.acquire c f1 ~index:0 in
      (* Budget exceeded but ch1 is active: must not be unmapped. *)
      let ch2 = Flash.Mmap_cache.acquire c f2 ~index:0 in
      Alcotest.(check int) "no unmaps of active chunks" 0
        (Flash.Mmap_cache.unmap_ops c);
      Flash.Mmap_cache.release c ch1;
      Flash.Mmap_cache.release c ch2)

let test_mmap_refcount_sharing () =
  with_kernel (fun kernel ->
      let c =
        Flash.Mmap_cache.create kernel ~chunk_bytes ~max_bytes:(10 * chunk_bytes)
      in
      let f = add_file kernel "/rc.bin" chunk_bytes in
      let a = Flash.Mmap_cache.acquire c f ~index:0 in
      let b = Flash.Mmap_cache.acquire c f ~index:0 in
      Alcotest.(check int) "one mapping, shared" 1 (Flash.Mmap_cache.map_ops c);
      Flash.Mmap_cache.release c a;
      Flash.Mmap_cache.release c b;
      Alcotest.(check int) "no unmap while cached" 0 (Flash.Mmap_cache.unmap_ops c))

let test_mmap_disabled () =
  with_kernel (fun kernel ->
      let c = Flash.Mmap_cache.create kernel ~chunk_bytes ~max_bytes:0 in
      Alcotest.(check bool) "disabled" false (Flash.Mmap_cache.enabled c);
      let f = add_file kernel "/d.bin" chunk_bytes in
      let ch = Flash.Mmap_cache.acquire c f ~index:0 in
      Flash.Mmap_cache.release c ch;
      let ch2 = Flash.Mmap_cache.acquire c f ~index:0 in
      Flash.Mmap_cache.release c ch2;
      Alcotest.(check int) "map per acquire" 2 (Flash.Mmap_cache.map_ops c);
      Alcotest.(check int) "unmap per release" 2 (Flash.Mmap_cache.unmap_ops c))

let test_mmap_chunk_extent () =
  with_kernel (fun kernel ->
      let c =
        Flash.Mmap_cache.create kernel ~chunk_bytes ~max_bytes:(10 * chunk_bytes)
      in
      let f = add_file kernel "/ce.bin" (chunk_bytes + 100) in
      let off0, len0 = Flash.Mmap_cache.chunk_extent c f ~index:0 in
      Alcotest.(check (pair int int)) "first chunk" (0, chunk_bytes) (off0, len0);
      let off1, len1 = Flash.Mmap_cache.chunk_extent c f ~index:1 in
      Alcotest.(check (pair int int)) "tail chunk" (chunk_bytes, 100) (off1, len1);
      Alcotest.(check int) "index of offset" 1
        (Flash.Mmap_cache.chunk_index c ~off:(chunk_bytes + 50));
      match Flash.Mmap_cache.chunk_extent c f ~index:5 with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let test_mmap_release_unheld_rejected () =
  with_kernel (fun kernel ->
      let c =
        Flash.Mmap_cache.create kernel ~chunk_bytes ~max_bytes:(10 * chunk_bytes)
      in
      let f = add_file kernel "/ru.bin" chunk_bytes in
      let ch = Flash.Mmap_cache.acquire c f ~index:0 in
      Flash.Mmap_cache.release c ch;
      match Flash.Mmap_cache.release c ch with
      | () -> Alcotest.fail "double release accepted"
      | exception Invalid_argument _ -> ())

(* ---------------- live file-cache variants ---------------- *)

(* Encoded variants (gzip bodies) live in the same store as their origin
   under a NUL-separated key; the accounting contract is that a variant
   never outlives its origin and that every drop — explicit, evicted, or
   stale — uncharges the mapped-bytes gauge exactly once.  The bodies
   are just above [File_cache.copy_limit], so they are mappings, which
   the gauge counts. *)
module File_cache = Flash_live.File_cache

(* Origin and gzip variant body lengths: 100 and 40 bytes past the
   copy limit. *)
let o = File_cache.copy_limit + 100
let v = File_cache.copy_limit + 40

(* A body mapped from a temporary file holding [s], so the cache
   charges and releases it as it does a served file's. *)
let mapped_body s =
  let path = Filename.temp_file "flash_fc" ".bin" in
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let r = File_cache.map_body fd ~size:(String.length s) in
  Unix.close fd;
  Sys.remove path;
  r

(* Headers are one byte each, so an entry's store weight is its body
   length + 4 — the arithmetic the capacity checks below rely on. *)
let fc_entry ?encoding ?size contents mtime =
  let body, mapped = mapped_body contents in
  {
    File_cache.body;
    mapped;
    mtime;
    size = (match size with Some s -> s | None -> String.length contents);
    etag = "\"t\"";
    encoding;
    header_keep = Iovec.of_string "K";
    header_close = Iovec.of_string "C";
    header_304_keep = Iovec.of_string "k";
    header_304_close = Iovec.of_string "c";
  }

(* An [o]-byte origin with a [v]-byte gzip variant carrying the
   origin's validators (mtime 5, size [o]), as the server builds them. *)
let fc_pair c =
  File_cache.insert c "/f" (fc_entry (String.make o 'o') 5.);
  File_cache.insert_variant c "/f" ~encoding:"gzip"
    (fc_entry ~encoding:"gzip" ~size:o (String.make v 'g') 5.)

let test_variant_removed_with_origin () =
  let c = File_cache.create ~capacity_bytes:1_000_000 () in
  fc_pair c;
  Alcotest.(check int) "two entries" 2 (File_cache.entries c);
  Alcotest.(check int) "gauge charges both bodies" (o + v)
    (File_cache.mapped_bytes c);
  Alcotest.(check int) "weight includes headers" (o + v + 8)
    (File_cache.bytes c);
  Alcotest.(check bool) "variant hit" true
    (File_cache.find_variant c "/f" ~encoding:"gzip" ~mtime:5. ~size:o
    <> None);
  File_cache.remove c "/f";
  Alcotest.(check bool) "variant gone with origin" true
    (File_cache.find_variant c "/f" ~encoding:"gzip" ~mtime:5. ~size:o
    = None);
  Alcotest.(check int) "store empty" 0 (File_cache.entries c);
  Alcotest.(check int) "gauge uncharged exactly once each" 0
    (File_cache.mapped_bytes c)

let test_origin_eviction_drags_variant () =
  (* Origin (o + 4) and variant (v + 4) fit with 52 bytes to spare; the
     filler (o + 4) forces the LRU origin out, and the variant must
     follow. *)
  let c =
    File_cache.create ~policy:Flash_cache.Policy.Lru
      ~capacity_bytes:(o + v + 60) ()
  in
  fc_pair c;
  File_cache.insert c "/g" (fc_entry (String.make o 'f') 9.);
  Alcotest.(check bool) "filler resident" true
    (File_cache.find c "/g" ~mtime:9. ~size:o <> None);
  Alcotest.(check bool) "origin evicted" true
    (File_cache.find c "/f" ~mtime:5. ~size:o = None);
  Alcotest.(check bool) "variant followed its origin" true
    (File_cache.find_variant c "/f" ~encoding:"gzip" ~mtime:5. ~size:o
    = None);
  Alcotest.(check int) "gauge = filler only" o (File_cache.mapped_bytes c)

let test_variant_evicts_alone () =
  (* 72 bytes more: after touching the origin, the filler evicts only
     the LRU variant; the origin must survive, stay findable, and a
     later explicit removal must not double-uncharge. *)
  let c =
    File_cache.create ~policy:Flash_cache.Policy.Lru
      ~capacity_bytes:(o + v + 80) ()
  in
  fc_pair c;
  ignore (File_cache.find c "/f" ~mtime:5. ~size:o);
  File_cache.insert c "/g" (fc_entry (String.make o 'f') 9.);
  Alcotest.(check bool) "origin survives" true
    (File_cache.find c "/f" ~mtime:5. ~size:o <> None);
  Alcotest.(check bool) "variant evicted" true
    (File_cache.find_variant c "/f" ~encoding:"gzip" ~mtime:5. ~size:o
    = None);
  Alcotest.(check int) "gauge = origin + filler" (2 * o)
    (File_cache.mapped_bytes c);
  File_cache.remove c "/f";
  Alcotest.(check int) "no double uncharge on removal" o
    (File_cache.mapped_bytes c)

let test_stale_origin_invalidates_variants () =
  let c = File_cache.create ~capacity_bytes:1_000_000 () in
  fc_pair c;
  (* The file was rewritten: the origin lookup detects staleness and
     every representation must go with it. *)
  Alcotest.(check bool) "stale origin misses" true
    (File_cache.find c "/f" ~mtime:6. ~size:o = None);
  Alcotest.(check bool) "variant invalidated too" true
    (File_cache.find_variant c "/f" ~encoding:"gzip" ~mtime:5. ~size:o
    = None);
  Alcotest.(check int) "store empty" 0 (File_cache.entries c);
  Alcotest.(check int) "gauge fully uncharged" 0 (File_cache.mapped_bytes c)

let test_variant_validates_origin_key () =
  let c = File_cache.create ~capacity_bytes:1_000_000 () in
  fc_pair c;
  (* A variant hit is keyed on the origin's (mtime, size): a mismatch
     drops the variant but leaves the still-valid origin alone. *)
  Alcotest.(check bool) "mismatched size misses" true
    (File_cache.find_variant c "/f" ~encoding:"gzip" ~mtime:5. ~size:(o + 1)
    = None);
  Alcotest.(check bool) "origin untouched" true
    (File_cache.find c "/f" ~mtime:5. ~size:o <> None);
  Alcotest.(check int) "gauge = origin only" o (File_cache.mapped_bytes c)

let suite =
  [
    Alcotest.test_case "pathname basic" `Quick test_pathname_basic;
    Alcotest.test_case "pathname bounded LRU" `Quick test_pathname_bounded;
    Alcotest.test_case "pathname disabled" `Quick test_pathname_disabled;
    Alcotest.test_case "pathname invalidate" `Quick test_pathname_invalidate;
    Alcotest.test_case "header basic" `Quick test_header_basic;
    Alcotest.test_case "header mtime invalidation" `Quick
      test_header_invalidated_by_mtime;
    Alcotest.test_case "header disabled" `Quick test_header_disabled;
    Alcotest.test_case "mmap reuse avoids map ops" `Quick test_mmap_reuse;
    Alcotest.test_case "mmap lazy unmap on pressure" `Quick test_mmap_lazy_unmap;
    Alcotest.test_case "mmap active chunks pinned" `Quick
      test_mmap_active_not_unmapped;
    Alcotest.test_case "mmap refcount sharing" `Quick test_mmap_refcount_sharing;
    Alcotest.test_case "mmap disabled maps every time" `Quick test_mmap_disabled;
    Alcotest.test_case "mmap chunk extents" `Quick test_mmap_chunk_extent;
    Alcotest.test_case "mmap double release rejected" `Quick
      test_mmap_release_unheld_rejected;
    Alcotest.test_case "variant removed with origin" `Quick
      test_variant_removed_with_origin;
    Alcotest.test_case "origin eviction drags variant" `Quick
      test_origin_eviction_drags_variant;
    Alcotest.test_case "variant evicts alone, origin stays" `Quick
      test_variant_evicts_alone;
    Alcotest.test_case "stale origin invalidates variants" `Quick
      test_stale_origin_invalidates_variants;
    Alcotest.test_case "variant hit validates origin key" `Quick
      test_variant_validates_origin_key;
  ]
