// dcpim-sa fixture: planted suppression-grammar violations.
//
// Golden expectations (tests/test_dcpim_sa.py):
//   - an sa-ok with an empty justification
//   - an sa-ok naming an unknown rule
//   - a well-formed sa-ok that covers no finding (unused — stale comments
//     must not silently rot in the tree)

namespace fixture {

class Plain {
 public:
  long raw() const { return v_; }

 private:
  long v_ = 0;
};

long empty_justification(const Plain& p) {
  // sa-ok(unit-raw):
  return p.raw();  // the blank justification above makes this fire too
}

long unknown_rule(const Plain& p) {
  // sa-ok(not-a-rule): the rule name is not in the rule table
  return p.raw();
}

int unused_suppression() {
  // sa-ok(hot-alloc): nothing below allocates — this comment is stale.
  return 42;
}

// Retired rule families are unknown rules too, so a stale comment naming
// one fails the run instead of lingering in the tree.
void retired_rules() {
  // sa-ok(pdes): the pdes rule family is retired
  // sa-ok(hot-cost): the hot-cost rule family is retired
}

// Rules whose sites have no sound escape take no suppression either.
void unsuppressible() {
  // sa-ok(unordered-container): hashed containers have no escape
}

}  // namespace fixture
