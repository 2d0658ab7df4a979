//! `S3Cloud` — an S3-compatible HTTP object-store backend.
//!
//! Implements the five-op [`CloudStore`] contract over the subset of
//! the S3 REST dialect every S3-compatible store speaks (the paper's
//! §4 point: restrict the adapter to the operations *every* provider
//! offers, and one narrow trait covers them all):
//!
//! * `upload` → `PUT /{bucket}/{key}`
//! * `download` → `GET /{bucket}/{key}`
//! * `create_dir` → `PUT /{bucket}/{key}/` (trailing-slash marker)
//! * `list` → `GET /{bucket}?list-type=2&prefix={dir}/&delimiter=%2F`,
//!   following `NextContinuationToken` until `IsTruncated` is false
//!   (real S3 caps each page at 1000 keys)
//! * `delete` → `DELETE /{bucket}/{key}`
//!
//! Transport is the std-only pooled [`HttpClient`](crate::http): a
//! bounded keep-alive connection pool sized by the data plane's
//! `connections_per_cloud`, with waiters parked on the runtime's
//! notifier. Status mapping keeps the retry/health stack honest:
//! 500/503 and connection-level failures become
//! [`CloudError::Transient`] *with operation context attached*, 404
//! becomes `NotFound`, 400 `InvalidPath`, 507 `QuotaExceeded`, and
//! 401/403 the non-retryable [`CloudError::Unavailable`] (auth
//! rejections need failover or operator action, not retries) — so
//! `Retry`, `ChaosCloud`, and the health scoreboard wrap a real
//! network path exactly as they wrap `SimCloud`.
//!
//! # Limitations
//!
//! Requests are **unsigned**: there is no SigV4 (or any) credential
//! support, so the adapter only works against anonymous/unauthenticated
//! S3-compatible endpoints — the in-process [`MockS3`](crate::MockS3),
//! or a MinIO/ceph-rgw instance with a public bucket policy. A
//! credentialed endpoint answers 401/403, which surfaces as a terminal
//! `Unavailable` rather than a retry loop.
//!
//! The adapter also inherits the real S3 not-found dialect
//! ([`CloudCaps::strict_not_found`] = `false`): deleting a missing key
//! succeeds idempotently and listing an absent prefix yields an empty
//! listing, because the wire protocol cannot distinguish those from
//! their strict counterparts.

use std::sync::Arc;

use unidrive_sim::Runtime;
use unidrive_util::bytes::Bytes;

use crate::http::{
    percent_encode_path, percent_encode_query, HttpClient, HttpRequest, HttpResponse,
};
use crate::mock_s3::xml_unescape;
use crate::{validate_path, CloudCaps, CloudError, CloudOp, CloudStore, ObjectInfo};

/// Where an S3-compatible cloud lives: endpoint address and bucket.
///
/// Used by the core config plumbing to build endpoint-backed
/// `CloudSet`s without dragging HTTP details into `unidrive-core`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct S3Endpoint {
    /// Display name for metrics, health rows, and placement maps.
    pub name: String,
    /// `host:port` of the S3-compatible service.
    pub addr: String,
    /// Bucket all objects live under.
    pub bucket: String,
}

impl S3Endpoint {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        addr: impl Into<String>,
        bucket: impl Into<String>,
    ) -> S3Endpoint {
        S3Endpoint {
            name: name.into(),
            addr: addr.into(),
            bucket: bucket.into(),
        }
    }
}

/// An S3-compatible object store spoken to over pooled HTTP/1.1.
pub struct S3Cloud {
    name: String,
    bucket: String,
    client: HttpClient,
}

impl std::fmt::Debug for S3Cloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("S3Cloud")
            .field("name", &self.name)
            .field("bucket", &self.bucket)
            .field("client", &self.client)
            .finish()
    }
}

impl S3Cloud {
    /// A client for the S3-compatible service at `endpoint`, holding
    /// at most `connections` pooled connections (the data plane passes
    /// its `connections_per_cloud` here).
    pub fn connect(rt: &Arc<dyn Runtime>, endpoint: &S3Endpoint, connections: usize) -> S3Cloud {
        // Accept both bare `host:port` and `http://host:port` forms.
        let addr = endpoint
            .addr
            .strip_prefix("http://")
            .unwrap_or(&endpoint.addr)
            .trim_end_matches('/');
        S3Cloud {
            name: endpoint.name.clone(),
            bucket: endpoint.bucket.clone(),
            client: HttpClient::new(rt, addr, connections),
        }
    }

    /// The endpoint address this cloud talks to.
    pub fn addr(&self) -> &str {
        self.client.addr()
    }

    fn key_target(&self, path: &str) -> String {
        format!("/{}/{}", self.bucket, percent_encode_path(path))
    }

    /// Issues one request, mapping transport failures to retryable
    /// transients carrying the originating op and path.
    fn send(&self, req: &HttpRequest, op: CloudOp, path: &str) -> Result<HttpResponse, CloudError> {
        self.client
            .request(req)
            .map_err(|e| CloudError::transient_op(format!("http: {e}"), op, path))
    }

    /// Maps a non-success status onto the `CloudStore` error contract.
    fn status_error(&self, resp: &HttpResponse, op: CloudOp, path: &str) -> CloudError {
        match resp.status {
            404 => CloudError::not_found(path),
            400 => CloudError::InvalidPath {
                path: path.to_owned(),
                reason: "rejected by server (400)".to_owned(),
            },
            // Auth rejections are terminal, not transient: this adapter
            // sends unsigned requests (see the module docs), so a
            // credentialed endpoint will refuse every attempt — the
            // caller must fail over, not retry.
            401 | 403 => CloudError::Unavailable {
                cloud: format!("{} (auth rejected: {})", self.name, resp.status),
                op: Some(op),
                path: Some(path.to_owned()),
            },
            507 => CloudError::QuotaExceeded {
                needed: 0,
                available: 0,
            },
            500 | 502 | 503 | 504 => CloudError::transient_op(
                format!("server {} {}", resp.status, resp.reason),
                op,
                path,
            ),
            other => CloudError::transient_op(format!("unexpected status {other}"), op, path),
        }
    }
}

impl CloudStore for S3Cloud {
    fn name(&self) -> &str {
        &self.name
    }

    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        validate_path(path)?;
        let req = HttpRequest::new("PUT", &self.key_target(path))
            .header("Host", self.client.addr())
            .body(data.to_vec());
        let resp = self.send(&req, CloudOp::Upload, path)?;
        match resp.status {
            200 => Ok(()),
            _ => Err(self.status_error(&resp, CloudOp::Upload, path)),
        }
    }

    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        validate_path(path)?;
        let req = HttpRequest::new("GET", &self.key_target(path))
            .header("Host", self.client.addr());
        let resp = self.send(&req, CloudOp::Download, path)?;
        match resp.status {
            200 => Ok(Bytes::from(resp.body)),
            _ => Err(self.status_error(&resp, CloudOp::Download, path)),
        }
    }

    fn create_dir(&self, path: &str) -> Result<(), CloudError> {
        validate_path(path)?;
        let target = format!("/{}/{}/", self.bucket, percent_encode_path(path));
        let req = HttpRequest::new("PUT", &target).header("Host", self.client.addr());
        let resp = self.send(&req, CloudOp::CreateDir, path)?;
        match resp.status {
            200 => Ok(()),
            _ => Err(self.status_error(&resp, CloudOp::CreateDir, path)),
        }
    }

    fn list(&self, path: &str) -> Result<Vec<ObjectInfo>, CloudError> {
        if !path.is_empty() {
            validate_path(path)?;
        }
        let prefix = if path.is_empty() {
            String::new()
        } else {
            format!("{path}/")
        };
        // Real S3 caps every page at 1000 keys; follow the continuation
        // chain so a large directory is never silently truncated (a
        // truncated listing would make the sync engine treat the tail
        // entries as remotely deleted).
        let mut out = Vec::new();
        let mut token: Option<String> = None;
        loop {
            let mut target = format!(
                "/{}?list-type=2&prefix={}&delimiter=%2F",
                self.bucket,
                percent_encode_query(&prefix)
            );
            if let Some(t) = &token {
                target.push_str("&continuation-token=");
                target.push_str(&percent_encode_query(t));
            }
            let req = HttpRequest::new("GET", &target).header("Host", self.client.addr());
            let resp = self.send(&req, CloudOp::List, path)?;
            if resp.status != 200 {
                return Err(self.status_error(&resp, CloudOp::List, path));
            }
            let xml = String::from_utf8_lossy(&resp.body);
            let page = parse_listing(&xml, &prefix, path)?;
            out.extend(page.entries);
            match page.next_token {
                Some(t) => token = Some(t),
                None => break,
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn delete(&self, path: &str) -> Result<(), CloudError> {
        validate_path(path)?;
        let req = HttpRequest::new("DELETE", &self.key_target(path))
            .header("Host", self.client.addr());
        let resp = self.send(&req, CloudOp::Delete, path)?;
        match resp.status {
            200 | 204 => Ok(()),
            _ => Err(self.status_error(&resp, CloudOp::Delete, path)),
        }
    }

    fn caps(&self) -> CloudCaps {
        CloudCaps {
            // The S3 dialect has no append; the default read-modify-
            // write (or the oplog plane's full-replace policy) applies.
            native_append: false,
            // MockS3 — like real S3 since 2020 — is read-after-write
            // consistent for puts and lists.
            read_after_write: true,
            // S3's single-PUT limit.
            max_object_bytes: Some(5 * 1024 * 1024 * 1024),
            supports_conditional_put: false,
            // Real S3: delete of a missing key answers 204 and an
            // absent prefix lists as empty — the wire cannot express
            // the strict dialect.
            strict_not_found: false,
        }
    }
}

/// One parsed page of a `ListBucketResult` response.
#[derive(Debug)]
struct ListingPage {
    /// Entries on this page, relative to the requested prefix.
    entries: Vec<ObjectInfo>,
    /// Continuation token for the next page when the response was
    /// truncated; `None` on the final page.
    next_token: Option<String>,
}

/// Parses one page of `ListBucketResult` XML into `ObjectInfo` rows
/// relative to `prefix`, plus the continuation token if truncated.
fn parse_listing(xml: &str, prefix: &str, dir: &str) -> Result<ListingPage, CloudError> {
    // Tolerate attributes on the root element: real S3/MinIO emit
    // `<ListBucketResult xmlns="http://s3.amazonaws.com/doc/2006-03-01/">`.
    if !xml.contains("<ListBucketResult") {
        return Err(CloudError::transient_op(
            "malformed listing response",
            CloudOp::List,
            dir,
        ));
    }
    let mut out = Vec::new();
    for block in scan_blocks(xml, "<Contents>", "</Contents>") {
        let key = tag_text(block, "Key").unwrap_or_default();
        let size: u64 = tag_text(block, "Size")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let name = key.strip_prefix(prefix).unwrap_or(&key);
        if name.is_empty() || name.contains('/') {
            continue; // outside this level (defensive; the server filters)
        }
        out.push(ObjectInfo {
            name: name.to_owned(),
            size,
            is_dir: false,
        });
    }
    for block in scan_blocks(xml, "<CommonPrefixes>", "</CommonPrefixes>") {
        let full = tag_text(block, "Prefix").unwrap_or_default();
        let rel = full.strip_prefix(prefix).unwrap_or(&full);
        let name = rel.trim_end_matches('/');
        if name.is_empty() || name.contains('/') {
            continue;
        }
        out.push(ObjectInfo {
            name: name.to_owned(),
            size: 0,
            is_dir: true,
        });
    }
    let truncated = tag_text(xml, "IsTruncated").is_some_and(|t| t == "true");
    let next_token = if truncated {
        match tag_text(xml, "NextContinuationToken") {
            Some(t) if !t.is_empty() => Some(t),
            // Truncated with no token would loop or drop entries —
            // treat as a malformed (retryable) response.
            _ => {
                return Err(CloudError::transient_op(
                    "truncated listing without continuation token",
                    CloudOp::List,
                    dir,
                ))
            }
        }
    } else {
        None
    };
    Ok(ListingPage {
        entries: out,
        next_token,
    })
}

/// Yields the inner text of each `open`..`close` block in order.
fn scan_blocks<'a>(xml: &'a str, open: &'a str, close: &'a str) -> impl Iterator<Item = &'a str> {
    let mut rest = xml;
    std::iter::from_fn(move || {
        let start = rest.find(open)? + open.len();
        let len = rest[start..].find(close)?;
        let block = &rest[start..start + len];
        rest = &rest[start + len + close.len()..];
        Some(block)
    })
}

/// Extracts and XML-unescapes `<tag>text</tag>` from a block.
fn tag_text(block: &str, tag: &str) -> Option<String> {
    let open = format!("<{tag}>");
    let close = format!("</{tag}>");
    let start = block.find(&open)? + open.len();
    let len = block[start..].find(&close)?;
    Some(xml_unescape(&block[start..start + len]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MockS3;
    use unidrive_sim::RealRuntime;

    #[test]
    fn listing_parser_extracts_files_and_dirs() {
        let xml = "<?xml version=\"1.0\"?>\n<ListBucketResult><Prefix>d/</Prefix>\
                   <KeyCount>3</KeyCount>\
                   <Contents><Key>d/b.txt</Key><Size>12</Size></Contents>\
                   <Contents><Key>d/a &amp; b</Key><Size>0</Size></Contents>\
                   <CommonPrefixes><Prefix>d/sub/</Prefix></CommonPrefixes>\
                   </ListBucketResult>";
        let page = parse_listing(xml, "d/", "d").unwrap();
        assert!(page.next_token.is_none());
        let mut rows = page.entries;
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        let names: Vec<_> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a & b", "b.txt", "sub"]);
        assert!(rows[2].is_dir);
        assert_eq!(rows[1].size, 12);
    }

    #[test]
    fn listing_parser_tolerates_root_element_attributes() {
        // Real S3 and MinIO stamp the 2006-03-01 namespace on the root.
        let xml = "<?xml version=\"1.0\"?>\n\
                   <ListBucketResult xmlns=\"http://s3.amazonaws.com/doc/2006-03-01/\">\
                   <Contents><Key>f</Key><Size>1</Size></Contents>\
                   <IsTruncated>false</IsTruncated>\
                   </ListBucketResult>";
        let page = parse_listing(xml, "", "").unwrap();
        assert_eq!(page.entries.len(), 1);
        assert_eq!(page.entries[0].name, "f");
    }

    #[test]
    fn listing_parser_surfaces_continuation_token() {
        let xml = "<ListBucketResult xmlns=\"x\">\
                   <Contents><Key>a</Key><Size>1</Size></Contents>\
                   <IsTruncated>true</IsTruncated>\
                   <NextContinuationToken>tok-42</NextContinuationToken>\
                   </ListBucketResult>";
        let page = parse_listing(xml, "", "").unwrap();
        assert_eq!(page.next_token.as_deref(), Some("tok-42"));
        // Truncated without a token must not silently end the chain.
        let bad = "<ListBucketResult><IsTruncated>true</IsTruncated></ListBucketResult>";
        assert!(parse_listing(bad, "", "").is_err());
    }

    #[test]
    fn listing_parser_rejects_garbage() {
        assert!(parse_listing("<html>nope</html>", "", "").is_err());
    }

    #[test]
    fn auth_rejections_map_to_terminal_unavailable() {
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let endpoint = S3Endpoint::new("s3", "127.0.0.1:1", "b");
        let cloud = S3Cloud::connect(&rt, &endpoint, 1);
        for status in [401u16, 403] {
            let resp = HttpResponse::new(status, "Forbidden");
            let err = cloud.status_error(&resp, CloudOp::Upload, "p");
            assert!(
                matches!(err, CloudError::Unavailable { .. }),
                "{status} mapped to {err:?}"
            );
            assert!(!err.is_retryable(), "{status} must not retry");
            assert_eq!(err.op(), Some(CloudOp::Upload));
        }
        // 5xx stays retryable.
        let resp = HttpResponse::new(503, "Service Unavailable");
        assert!(cloud.status_error(&resp, CloudOp::Upload, "p").is_retryable());
    }

    /// End-to-end pagination: a directory larger than the server page
    /// size lists completely, via multiple continuation-chained
    /// requests.
    #[test]
    fn large_listing_follows_continuation_tokens() {
        let server = MockS3::start().expect("bind mock server");
        server.set_page_size(3);
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let endpoint = S3Endpoint::new("s3", server.addr(), "b");
        let cloud = S3Cloud::connect(&rt, &endpoint, 2);
        for i in 0..10 {
            cloud
                .upload(&format!("dir/f{i:02}"), Bytes::from(vec![0u8; i]))
                .expect("upload");
        }
        let before = server.requests();
        let rows = cloud.list("dir").expect("list");
        let names: Vec<_> = rows.iter().map(|r| r.name.as_str()).collect();
        let want: Vec<String> = (0..10).map(|i| format!("f{i:02}")).collect();
        assert_eq!(names, want.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(
            server.requests() - before,
            4,
            "10 entries at page size 3 must take 4 list requests"
        );
    }
}
