//! S004 fixture: secret values reaching format/print/log macros.

struct RsaPrivateKey {
    d: u64,
    bits: u32,
}

impl Drop for RsaPrivateKey {
    fn drop(&mut self) {
        zeroize(&mut self.d);
    }
}

impl RsaPrivateKey {
    fn bits(&self) -> u32 {
        self.bits
    }
}

struct Holder {
    bits: u32,
}

impl Holder {
    fn key(&self) -> u32 {
        self.bits
    }
}

// Positive: a secret-typed binding rendered whole.
fn leak_binding(key: RsaPrivateKey) {
    println!("{:?}", key); //~ S004
}

// Positive: a CRT component field formatted directly.
fn leak_field(key: RsaPrivateKey) {
    let _s = format!("{}", key.d); //~ S004
}

// Positive: a secret accessor feeding a sink.
fn leak_accessor(holder: &Holder) {
    eprintln!("{:?}", holder.key()); //~ S004
}

// Negative: printing non-secret metadata of a secret value is fine.
fn fine_metadata(key: RsaPrivateKey) {
    println!("{} bits", key.bits());
}

// Negative: non-secret bindings are fine.
fn fine_nonsecret(n: u64) {
    println!("{n}");
}

struct Scanner {
    pats: Vec<u8>,
}

impl Scanner {
    fn patterns(&self) -> &[u8] {
        &self.pats
    }
}

// Positive: a secret accessor rendered whole.
fn leak_patterns(s: &Scanner) {
    println!("{:?}", s.patterns()); //~ S004
}

// Negative: a sanitizer ending the chain inside the macro arguments.
fn fine_sanitized_chain(s: &Scanner) {
    println!("{}", s.patterns().len());
}

// Negative: the same chain hoisted into a binding.
fn fine_sanitized_binding(s: &Scanner) {
    let n = s.patterns().len();
    println!("{n}");
}

// Suppressed.
fn suppressed(key: RsaPrivateKey) {
    // keylint: allow(S004) -- demo intentionally shows the leak channel
    println!("{:?}", key);
}

fn zeroize<T>(_: &mut T) {}
