//! The interner's process-global count, in a test binary of its own: no
//! other test here interns values concurrently, so the count can be read
//! exactly across a re-intern.

use certa_core::AttrValue;

#[test]
fn interned_count_is_monotone() {
    let before = AttrValue::interned_count();
    let _ = AttrValue::intern("a value that only this test interns 0xB0");
    assert!(AttrValue::interned_count() > before);
    let again = AttrValue::interned_count();
    let _ = AttrValue::intern("a value that only this test interns 0xB0");
    assert_eq!(AttrValue::interned_count(), again, "re-intern adds nothing");
}
