// Autograd tape API leaking into the surrogate's tape-free evaluation
// (src/surrogate/infer.*): the objective-layer adjoints are hand-derived,
// so every marked line must be flagged and every unmarked one must not.

void objective_vjp(FakeNetwork& net, FakeTensor& s_plan, FakeTensor& fill) {
  s_plan.backward();                 // LINT[infer-no-autograd]
  float* g = fill.grad();            // LINT[infer-no-autograd]
  auto h = net.forward(fill);        // LINT[infer-no-autograd]
  net.run_vjp(s_plan, fill);  // the compiled reverse entry point: fine
  float d_fill = 0;           // cotangent naming: fine
  (void)g;
  (void)h;
  (void)d_fill;
}
