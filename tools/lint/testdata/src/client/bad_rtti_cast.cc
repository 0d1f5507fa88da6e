// Fixture: dynamic_cast in src/ must be flagged unless annotated.
namespace fixture {

struct Node {
  virtual ~Node() = default;
};
struct Register : Node {};

Register* lookup(Node* n) {
  return dynamic_cast<Register*>(n);  // MUST-FLAG rtti-cast
}

const Register* peek(const Node* n) {
  return dynamic_cast  <const Register*>(n);  // MUST-FLAG rtti-cast
}

Register* cold(Node* n) {
  // dynreg-lint: allow(rtti-cast): runs once per crash, not per operation
  return dynamic_cast<Register*>(n);
}

// A dynamic_cast<Register*> named in a comment is not a cast.
const char* kDoc = "dynamic_cast<Register*> in a string is not a cast either";

}  // namespace fixture
