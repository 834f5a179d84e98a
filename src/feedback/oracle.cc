#include "feedback/oracle.h"

namespace alex::feedback {

FeedbackItem Oracle::Judge(rdf::EntityId left, rdf::EntityId right) {
  FeedbackItem item;
  item.left = left;
  item.right = right;
  item.positive = truth_->Contains(left, right);
  if (error_rate_ > 0.0 && rng_.Bernoulli(error_rate_)) {
    item.positive = !item.positive;
  }
  return item;
}

}  // namespace alex::feedback
