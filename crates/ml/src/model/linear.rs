use agsfl_tensor::{init, Matrix, MatrixView, Store};
use rand::RngCore;

use crate::loss::batch_cross_entropy_with_grad;
use crate::model::{check_input, check_params, land, Model};

/// Multinomial logistic regression (a single linear layer followed by
/// soft-max cross-entropy).
///
/// Parameter layout in the flat vector: the `input_dim x num_classes` weight
/// matrix in row-major order, followed by the `num_classes` bias terms.
///
/// # Examples
///
/// ```
/// use agsfl_ml::model::{LinearSoftmax, Model};
/// use agsfl_tensor::Matrix;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let model = LinearSoftmax::new(4, 3);
/// assert_eq!(model.num_params(), 4 * 3 + 3);
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let params = model.init_params(&mut rng);
/// let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3, 0.4]]);
/// let logits = model.forward(&params, &x);
/// assert_eq!(logits.shape(), (1, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearSoftmax {
    input_dim: usize,
    num_classes: usize,
}

impl LinearSoftmax {
    /// Creates a logistic-regression model for `input_dim`-dimensional inputs
    /// and `num_classes` output classes.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(input_dim: usize, num_classes: usize) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        assert!(num_classes > 0, "num_classes must be positive");
        Self {
            input_dim,
            num_classes,
        }
    }

    fn weight_len(&self) -> usize {
        self.input_dim * self.num_classes
    }

    /// Borrows the weight matrix portion of a flat parameter slice as an
    /// `(input_dim, num_classes)` view.
    fn weights<'p>(&self, params: &'p [f32]) -> MatrixView<'p> {
        MatrixView::new(
            self.input_dim,
            self.num_classes,
            &params[..self.weight_len()],
        )
    }

    fn biases<'p>(&self, params: &'p [f32]) -> &'p [f32] {
        &params[self.weight_len()..]
    }
}

impl Model for LinearSoftmax {
    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn num_params(&self) -> usize {
        self.weight_len() + self.num_classes
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f32> {
        let mut params = init::xavier_uniform(self.input_dim, self.num_classes, rng).into_vec();
        params.extend(std::iter::repeat_n(0.0f32, self.num_classes));
        params
    }

    fn forward_view(&self, params: &[f32], x: MatrixView<'_>) -> Matrix {
        check_params(self, params);
        check_input(self, x);
        let mut logits = Matrix::zeros(x.rows(), self.num_classes);
        x.matmul_acc(self.weights(params), logits.as_mut_slice());
        logits.add_row_broadcast(self.biases(params));
        logits
    }

    /// `dW = Xᵀ · dLogits` lands straight from the product's registers,
    /// `db` = the column sums of `dLogits`.
    fn loss_and_land(
        &self,
        params: &[f32],
        x: &Matrix,
        labels: &[usize],
        out: &mut [f32],
        store: Store,
    ) -> f32 {
        let logits = self.forward(params, x);
        let (loss, dlogits) = batch_cross_entropy_with_grad(&logits, labels);
        let (dw, db) = out.split_at_mut(self.weight_len());
        x.view().transpose_matmul(dlogits.view(), dw, store);
        land(db, &dlogits.sum_rows(), store);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::finite_difference_check;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn num_params_layout() {
        let m = LinearSoftmax::new(10, 4);
        assert_eq!(m.num_params(), 44);
        assert_eq!(m.input_dim(), 10);
        assert_eq!(m.num_classes(), 4);
    }

    #[test]
    fn init_params_length_and_zero_bias() {
        let m = LinearSoftmax::new(7, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let p = m.init_params(&mut rng);
        assert_eq!(p.len(), m.num_params());
        assert!(p[21..].iter().all(|&b| b == 0.0));
    }

    #[test]
    fn forward_zero_params_gives_zero_logits() {
        let m = LinearSoftmax::new(3, 2);
        let params = vec![0.0; m.num_params()];
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let logits = m.forward(&params, &x);
        assert!(logits.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn forward_known_values() {
        let m = LinearSoftmax::new(2, 2);
        // W = [[1, 0], [0, 1]], b = [0.5, -0.5]
        let params = vec![1.0, 0.0, 0.0, 1.0, 0.5, -0.5];
        let x = Matrix::from_rows(&[&[2.0, 3.0]]);
        let logits = m.forward(&params, &x);
        assert_eq!(logits.as_slice(), &[2.5, 2.5]);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = LinearSoftmax::new(5, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let params = m.init_params(&mut rng);
        let x = Matrix::from_fn(6, 5, |i, j| ((i + 2 * j) % 7) as f32 * 0.1 - 0.3);
        let labels = vec![0, 1, 2, 0, 1, 2];
        let coords: Vec<usize> = (0..m.num_params()).step_by(3).collect();
        let worst = finite_difference_check(&m, &params, &x, &labels, &coords, 1e-2);
        assert!(worst < 5e-3, "worst deviation {worst}");
    }

    #[test]
    fn training_reduces_loss() {
        let m = LinearSoftmax::new(4, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut params = m.init_params(&mut rng);
        // Linearly separable toy data.
        let x = Matrix::from_rows(&[
            &[1.0, 1.0, 0.0, 0.0],
            &[0.9, 1.1, 0.1, 0.0],
            &[0.0, 0.0, 1.0, 1.0],
            &[0.1, 0.0, 0.9, 1.1],
        ]);
        let labels = vec![0, 0, 1, 1];
        let initial = m.loss(&params, &x, &labels);
        for _ in 0..200 {
            let (_, grad) = m.loss_and_grad(&params, &x, &labels);
            crate::optim::sgd_step(&mut params, &grad, 0.5);
        }
        let trained = m.loss(&params, &x, &labels);
        assert!(trained < initial * 0.2, "loss {initial} -> {trained}");
        assert_eq!(m.accuracy(&params, &x, &labels), 1.0);
    }

    #[test]
    #[should_panic]
    fn wrong_param_length_panics() {
        let m = LinearSoftmax::new(3, 2);
        let x = Matrix::zeros(1, 3);
        let _ = m.forward(&[0.0; 4], &x);
    }

    #[test]
    #[should_panic]
    fn wrong_input_width_panics() {
        let m = LinearSoftmax::new(3, 2);
        let params = vec![0.0; m.num_params()];
        let _ = m.forward(&params, &Matrix::zeros(1, 5));
    }

    proptest! {
        #[test]
        fn prop_gradient_length_is_num_params(
            input_dim in 1usize..8,
            classes in 2usize..6,
            batch in 1usize..5,
        ) {
            let m = LinearSoftmax::new(input_dim, classes);
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let params = m.init_params(&mut rng);
            let x = Matrix::from_fn(batch, input_dim, |i, j| ((i + j) % 3) as f32 - 1.0);
            let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
            let (loss, grad) = m.loss_and_grad(&params, &x, &labels);
            prop_assert!(loss.is_finite());
            prop_assert_eq!(grad.len(), m.num_params());
        }
    }
}
