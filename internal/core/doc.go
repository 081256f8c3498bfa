// Package core implements trace-driven (off-policy) evaluation of
// networking policies, the primary contribution of "Biases in Data-Driven
// Networking, and What to Do About Them" (HotNets 2017).
//
// The central objects are:
//
//   - Record / Trace: logged tuples (context, decision, reward,
//     propensity) collected while an old policy µ_old was running.
//   - TraceView: the columnar, interned form of a Trace that every
//     estimator reads; ViewBuilder grows one record by record.
//   - Policy: a stochastic mapping from client contexts to decisions.
//   - RewardModel: a model r̂(c, d) predicting the reward of any
//     decision for any context (the ingredient of the Direct Method).
//   - Estimators: DirectMethodView (DM), IPSView (inverse propensity
//     scoring, with optional clipping and self-normalization), and
//     DoublyRobustView (DR), which combines DM and IPS and is accurate
//     whenever at least one of the two ingredients is accurate
//     ("second-order bias"). All of them, matched rewards and
//     DiagnoseView are one fold of per-record terms (fold.go), which
//     StreamEval also runs over a growing stream.
//   - ReplayDR: the paper's §4.2 extension of DR to non-stationary
//     (history-dependent) target policies via rejection-sampling replay.
//
// Estimators are generic over the context type C and the (comparable)
// decision type D, so the same machinery evaluates video bitrate
// policies, CDN configurations, relay selections, and server choices.
//
// All estimators return an Estimate carrying the point value, a plug-in
// standard error, and importance-weight diagnostics; bootstrap
// confidence intervals are available via BootstrapDRViewSeeded.
package core
